"""Ranking construction and ranking-quality scores.

A ranking orders segment ids from least to most post-editing effort. Metrics
disagree about which end means effort, so every value vector passes through a
Polarity before ranking or correlating: TER-like scores are kept as-is,
BLEU/METEOR/DA-like scores are negated. `METRICS` is the one table of the
metric vocabulary: each metric's name, polarity and kind.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np


class Polarity(enum.Enum):
    HIGHER_IS_MORE_EFFORT = "higher-is-more-effort"
    LOWER_IS_MORE_EFFORT = "lower-is-more-effort"


class MetricKind(enum.Enum):
    """What a metric measures; decides which tables rank it."""

    REFERENCE = "reference-based"  # MT against the independent reference
    HUMAN_TARGETED = "human-targeted"  # MT against its post-edit, or the keys it took
    DA = "direct assessment"  # optional human adequacy score of the segment
    GOLD = "task measurement"  # the measured effort every other metric is judged by


@dataclass(frozen=True)
class Metric:
    name: str
    polarity: Polarity
    kind: MetricKind

    @property
    def field(self) -> str:
        """The SegmentScores attribute and scores-file column holding the values."""
        return self.name.lower()

    @property
    def loo(self) -> bool:
        """Leave-one-out ranks every metric except the reference-based ones."""
        return self.kind is not MetricKind.REFERENCE


# The fixed metric vocabulary, in the order of every output table.
METRICS: tuple[Metric, ...] = (
    Metric("TER", Polarity.HIGHER_IS_MORE_EFFORT, MetricKind.REFERENCE),
    Metric("BLEU", Polarity.LOWER_IS_MORE_EFFORT, MetricKind.REFERENCE),
    Metric("METEOR", Polarity.LOWER_IS_MORE_EFFORT, MetricKind.REFERENCE),
    Metric("DA", Polarity.LOWER_IS_MORE_EFFORT, MetricKind.DA),
    Metric("HTER", Polarity.HIGHER_IS_MORE_EFFORT, MetricKind.HUMAN_TARGETED),
    Metric("HBLEU", Polarity.LOWER_IS_MORE_EFFORT, MetricKind.HUMAN_TARGETED),
    Metric("HMETEOR", Polarity.LOWER_IS_MORE_EFFORT, MetricKind.HUMAN_TARGETED),
    Metric("KEYS_PER_CHAR", Polarity.HIGHER_IS_MORE_EFFORT, MetricKind.HUMAN_TARGETED),
    Metric("PETPW", Polarity.HIGHER_IS_MORE_EFFORT, MetricKind.GOLD),
)
GOLD_METRIC = next(m for m in METRICS if m.kind is MetricKind.GOLD)
DA_METRIC = next(m for m in METRICS if m.kind is MetricKind.DA)


def effort_oriented(values: Sequence[float], polarity: Polarity) -> list[float]:
    """Map values so that larger always means more post-editing effort."""
    if polarity is Polarity.HIGHER_IS_MORE_EFFORT:
        return list(values)
    return [-v for v in values]


def effort_order(values: Sequence[float], polarity: Polarity) -> np.ndarray:
    """Positions of `values` from least to most effort; ties keep position order."""
    return np.argsort(_rankable(effort_oriented(values, polarity)), kind="stable")


def rank_by(values: Mapping[str, float], polarity: Polarity) -> list[str]:
    """Order segment ids easiest-first under the given effort polarity.

    Ties break on the segment id, so the ranking is a deterministic function
    of its inputs.
    """
    if not values:
        raise ValueError("no values to rank")
    ids = sorted(values)
    for sid in ids:
        if math.isnan(values[sid]):
            raise ValueError(f"NaN value for segment '{sid}'")
    return [ids[i] for i in effort_order([values[sid] for sid in ids], polarity).tolist()]


def _rankable(values: Sequence[float]) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    if np.isnan(a).any():
        raise ValueError("NaN value cannot be ranked")
    return a


def fractional_ranks(values: Sequence[float]) -> np.ndarray:
    """Average ranks (1-based); tied values share the mean of their ranks."""
    _, group, counts = np.unique(_rankable(values), return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[group]


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's rho: Pearson correlation of the fractional ranks; NaN is rejected."""
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    if len(x) < 3:
        raise ValueError("need at least 3 observations")
    rx = fractional_ranks(x)
    ry = fractional_ranks(y)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    vx = float(np.dot(dx, dx))
    vy = float(np.dot(dy, dy))
    if vx == 0.0 or vy == 0.0:
        raise ValueError("undefined correlation (constant vector)")
    return float(np.dot(dx, dy) / math.sqrt(vx * vy))


def _running_sums(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """0.0 followed by each prefix sum of `values`, added in order from 0.0 as a
    `+=` loop does (np.sum would add pairwise and can differ in the last bit)."""
    return np.cumsum(np.concatenate(([0.0], values)))


def satra(times: Sequence[float] | np.ndarray, lengths: Sequence[int] | np.ndarray) -> float:
    """Split-averaged time-ratio assessment of a ranking; lower is better.

    `times` and `lengths` hold each ranked segment's post-editing time in
    seconds and MT length in tokens, least effort first. For every split
    point the average time-per-word of the segments ranked above it is
    divided by the average time-per-word of those below it; the score is the
    mean of these ratios over all N-1 splits. A ranking that puts
    quick-to-post-edit segments first scores below 1, a random ranking
    scores close to 1. Times that leave a zero-time suffix, or whose ratios
    over- or underflow, raise "degenerate times".
    """
    times = np.asarray(times, dtype=float)
    lengths = np.asarray(lengths)
    n = len(times)
    if n < 2:
        raise ValueError("ranking needs at least 2 segments")
    if len(lengths) != n:
        raise ValueError("times, lengths must have equal length")
    if (lengths < 1).any():
        raise ValueError("lengths must be positive")
    if (times < 0).any():
        raise ValueError("times must be non-negative")
    with np.errstate(all="ignore"):  # overflow and underflow are caught below
        time_prefix = _running_sums(times)[1:]
        len_prefix = _running_sums(lengths)[1:]  # in float64: int64 sums would wrap past 2**63
        time_suffix = time_prefix[-1] - time_prefix[:-1]
        if (time_suffix <= 0).any():
            raise ValueError("degenerate times: zero-time suffix")
        len_suffix = len_prefix[-1] - len_prefix[:-1]
        ratios = (time_prefix[:-1] / len_prefix[:-1]) / (time_suffix / len_suffix)
        score = float(_running_sums(ratios)[-1] / (n - 1))
    if not (np.isfinite(ratios).all() and math.isfinite(score)):
        raise ValueError("degenerate times: a time-per-word ratio over- or underflows")
    return score


def tail_overlap(
    gold_rank: Sequence[Hashable], metric_rank: Sequence[Hashable], cuts: Sequence[int]
) -> list[int]:
    """Shared segments between the top-c slices of two rankings, per cut.

    A ranking may list segment ids or view positions; both must use the same.
    """
    if set(gold_rank) != set(metric_rank) or len(gold_rank) != len(metric_rank):
        raise ValueError("rankings must permute the same segment ids")
    n = len(gold_rank)
    counts: list[int] = []
    for cut in cuts:
        if cut < 0 or cut > n:
            raise ValueError(f"cut {cut} out of range for {n} segments")
        counts.append(len(set(gold_rank[:cut]) & set(metric_rank[:cut])))
    return counts
