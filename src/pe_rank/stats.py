"""Statistical utilities: weighted descriptives, Williams and KS tests.

The distribution functions are self-contained (regularized incomplete beta
via continued fractions, asymptotic Kolmogorov-Smirnov survival series) so
the package has no heavyweight runtime dependencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


@dataclass(frozen=True)
class WilliamsResult:
    t_stat: float
    df: int
    p_one_tailed: float


@dataclass(frozen=True)
class KsResult:
    d_stat: float
    p_value: float


def weighted_mean_std(
    values: Sequence[float], weights: Sequence[float]
) -> tuple[float, float]:
    """Weighted mean and population-form weighted standard deviation."""
    if len(values) != len(weights):
        raise ValueError("values and weights must have equal length")
    if len(values) == 0:
        raise ValueError("empty input")
    w = np.asarray(weights, dtype=float)
    if (w < 0).any():
        raise ValueError("negative weight")
    if w.sum() == 0:  # an input error: np.average would raise ZeroDivisionError
        raise ValueError("all-zero weights")
    x = np.asarray(values, dtype=float)
    mean = float(np.average(x, weights=w))
    return mean, math.sqrt(np.average((x - mean) ** 2, weights=w))


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (Lentz's method)."""
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: int) -> float:
    """P(T > t) for Student's t with df degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if t == 0.0:
        return 0.5
    if t < 0.0:
        return 1.0 - student_t_sf(-t, df)
    x = df / (df + t * t)
    return 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)


def williams_test(r12: float, r13: float, r23: float, n: int) -> WilliamsResult:
    """One-tailed test of r13 vs r23 sharing variable 3 (the gold measurement).

    Variables 1 and 2 are the compared metrics, variable 3 the gold; r12 is
    the inter-metric correlation. Positive t means variable 1 tracks the gold
    more closely than variable 2.
    """
    if n < 4:
        raise ValueError("need n >= 4")
    for r in (r12, r13, r23):
        if not -1.0 < r < 1.0:
            raise ValueError(f"correlation {r} out of open interval (-1, 1)")
    df = n - 3
    k = 1.0 - r12 * r12 - r13 * r13 - r23 * r23 + 2.0 * r12 * r13 * r23
    radicand = 2.0 * k * (n - 1) / df + ((r13 + r23) ** 2 / 4.0) * (1.0 - r12) ** 3
    if radicand <= 0:
        raise ValueError("invalid correlation triple (non-positive variance)")
    t = (r13 - r23) * math.sqrt((n - 1) * (1.0 + r12)) / math.sqrt(radicand)
    return WilliamsResult(t_stat=t, df=df, p_one_tailed=student_t_sf(t, df))


def ks_survival(lam: float) -> float:
    """Asymptotic Kolmogorov survival Q(lambda) = 2 sum (-1)^(k-1) e^(-2 k^2 lam^2)."""
    if lam < 1e-9:
        return 1.0
    total = 0.0
    converged = False
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-12:
            converged = True
            break
    if not converged:
        return 1.0
    return min(max(total, 0.0), 1.0)


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Two-sample Kolmogorov-Smirnov test with the asymptotic p-value."""
    n1, n2 = len(a), len(b)
    if n1 < 2 or n2 < 2:
        raise ValueError("each sample needs at least 2 observations")
    x1 = np.sort(np.asarray(a, dtype=float))
    x2 = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([x1, x2])
    cdf1 = np.searchsorted(x1, grid, side="right") / n1
    cdf2 = np.searchsorted(x2, grid, side="right") / n2
    d = float(np.max(np.abs(cdf1 - cdf2)))
    ne = n1 * n2 / (n1 + n2)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    return KsResult(d_stat=d, p_value=ks_survival(lam))


def cluster_annotators(
    petpw_by_annotator: Mapping[str, Sequence[float]], alpha: float = 0.05
) -> list[list[str]]:
    """Group annotators whose time-per-word samples look same-distributed.

    Any pair the KS test fails to reject at `alpha` gets an edge; clusters
    are the connected components, each sorted by id, listed by smallest
    member.
    """
    ids = sorted(petpw_by_annotator)
    if len(ids) < 2:
        raise ValueError("need at least 2 annotators")
    parent = {a: a for a in ids}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            result = ks_two_sample(petpw_by_annotator[a], petpw_by_annotator[b])
            if result.p_value >= alpha:
                parent[find(a)] = find(b)
    groups: dict[str, list[str]] = {}
    for a in ids:
        groups.setdefault(find(a), []).append(a)
    clusters = [sorted(members) for members in groups.values()]
    return sorted(clusters, key=lambda c: c[0])
