"""The statistics against scipy, where scipy is installed (`pip install -e '.[test]'`).

Each tolerance is ten times the largest error measured against scipy 1.17 at
an earlier check (t sf 1.3e-12, betainc 1.3e-13, Spearman 2.2e-16) and is
stated at its assertion. The two-sample KS p-value is not compared: it is the
asymptotic series, which differs from scipy's exact value at these sizes.

`student_t_sf` keeps that tolerance only for |t| >= SMALL_T. Below it the error
grows as about 1e-14 / |t| (8e-9 at |t| = 1e-6): `df / (df + t * t)` rounds
away most of `t * t`, and the tail is taken from that x near 1. A strict xfail
shows it; a p-value that near 0.5 flags nothing at any usual alpha.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pe_rank.rankeval import spearman
from pe_rank.stats import ks_two_sample, regularized_incomplete_beta, student_t_sf, williams_test

scipy_stats = pytest.importorskip("scipy.stats")
scipy_special = pytest.importorskip("scipy.special")

T_SF_TOL = 1.3e-11
BETAINC_TOL = 1.3e-12
SPEARMAN_TOL = 2.2e-15
SMALL_T = 1e-3

# few distinct values, so samples are full of ties; signed zeros, subnormals and infinities
_TIED = st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.0, 3.0, 1e300, -math.inf, math.inf])


def _t_sf_error(t: np.ndarray, seed: int) -> float:
    """The largest distance from scipy's t sf at these t, with df drawn from 1-400."""
    df = np.random.default_rng(seed).integers(1, 401, len(t))
    ours = np.array([student_t_sf(float(a), int(d)) for a, d in zip(t, df)])
    return float(np.max(np.abs(ours - scipy_stats.t.sf(t, df))))


def test_student_t_sf_matches_scipy():
    t = np.random.default_rng(5).normal(0.0, 4.0, 2000)
    assert _t_sf_error(t[np.abs(t) >= SMALL_T], 5) <= T_SF_TOL


@pytest.mark.xfail(strict=True, reason="df / (df + t * t) loses t * t; error ~ 1e-14 / |t|")
def test_student_t_sf_matches_scipy_near_zero():
    rng = np.random.default_rng(8)
    t = np.exp(rng.uniform(math.log(1e-6), math.log(SMALL_T), 500)) * rng.choice([-1, 1], 500)
    assert _t_sf_error(t, 8) <= T_SF_TOL


def test_regularized_incomplete_beta_matches_scipy():
    rng = np.random.default_rng(6)
    a, b = rng.uniform(0.05, 200.0, (2, 2000))
    x = rng.uniform(0.0, 1.0, 2000)
    ours = np.array([regularized_incomplete_beta(*v) for v in zip(a, b, x)])
    assert np.max(np.abs(ours - scipy_special.betainc(a, b, x))) <= BETAINC_TOL


@given(st.lists(st.tuples(_TIED, _TIED), min_size=3, max_size=40))
def test_spearman_matches_spearmanr_on_tied_data(pairs):
    x, y = (list(v) for v in zip(*pairs))
    try:
        ours = spearman(x, y)
    except ValueError:  # a constant vector, which spearmanr answers with NaN and a warning
        return
    assert abs(ours - scipy_stats.spearmanr(x, y).statistic) <= SPEARMAN_TOL


@given(st.lists(_TIED, min_size=2, max_size=30), st.lists(_TIED, min_size=2, max_size=30))
def test_ks_two_sample_statistic_equals_scipy(a, b):
    # method="asymp" only skips scipy's exact p-value search; D is the same
    assert ks_two_sample(a, b).d_stat == scipy_stats.ks_2samp(a, b, method="asymp").statistic


def test_williams_p_is_the_t_tail_at_n_minus_3():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(2000):
        r12, r13, r23 = rng.uniform(-0.95, 0.95, 3)
        n = int(rng.integers(4, 400))
        try:
            result = williams_test(r12, r13, r23, n)
        except ValueError:  # a triple with no positive variance
            continue
        if abs(result.t_stat) < SMALL_T:  # student_t_sf's loss near 0, shown above
            continue
        assert result.df == n - 3
        assert abs(result.p_one_tailed - scipy_stats.t.sf(result.t_stat, n - 3)) <= T_SF_TOL
        checked += 1
    assert checked > 1000
