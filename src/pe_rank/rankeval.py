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
from typing import Mapping, Sequence

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

# Effort orientation of each metric, by name.
METRIC_POLARITY: dict[str, Polarity] = {m.name: m.polarity for m in METRICS}


@dataclass(frozen=True)
class RankInstance:
    """A ranking with the measured time and length of each ranked segment.

    Position j holds the id ranked j-th (least effort first), its total
    post-editing time in seconds, and its MT length in tokens.
    """

    segment_ids: tuple[str, ...]
    times: tuple[float, ...]
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.segment_ids)
        if n < 2:
            raise ValueError("ranking needs at least 2 segments")
        if len(self.times) != n or len(self.lengths) != n:
            raise ValueError("segment_ids, times, lengths must have equal length")
        if len(set(self.segment_ids)) != n:
            raise ValueError("duplicate segment id in ranking")
        if any(l < 1 for l in self.lengths):
            raise ValueError("lengths must be positive")
        if any(t < 0 for t in self.times):
            raise ValueError("times must be non-negative")


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


def satra(inst: RankInstance) -> float:
    """Split-averaged time-ratio assessment of a ranking; lower is better.

    For every split point the average time-per-word of the segments ranked
    above it is divided by the average time-per-word of those below it; the
    score is the mean of these ratios over all N-1 splits. A ranking that
    puts quick-to-post-edit segments first scores below 1, a random ranking
    scores close to 1.
    """
    n = len(inst.segment_ids)
    total_time = sum(inst.times)
    total_len = sum(inst.lengths)
    time_prefix = 0.0
    len_prefix = 0
    acc = 0.0
    for j in range(n - 1):
        time_prefix += inst.times[j]
        len_prefix += inst.lengths[j]
        time_suffix = total_time - time_prefix
        len_suffix = total_len - len_prefix
        if time_suffix <= 0:
            raise ValueError("degenerate times: zero-time suffix")
        acc += (time_prefix / len_prefix) / (time_suffix / len_suffix)
    return acc / (n - 1)


def delta_avg(
    ranking: Sequence[str], gold: Mapping[str, float], quantiles: int
) -> float:
    """Quantile-based ranking quality against a gold score.

    The ranking is cut into `quantiles` consecutive groups (remainder rows
    join the last group); the score averages, over every head made of the
    first k groups, the difference between the head's mean gold value and the
    overall mean.
    """
    n = len(ranking)
    if quantiles < 2:
        raise ValueError("need at least 2 quantiles")
    if quantiles > n:
        raise ValueError(f"{quantiles} quantiles exceed {n} segments")
    missing = [sid for sid in ranking if sid not in gold]
    if missing:
        raise ValueError(f"no gold value for segment '{missing[0]}'")
    values = [gold[sid] for sid in ranking]
    overall = sum(values) / n
    base = n // quantiles
    acc = 0.0
    head = 0
    for _ in range(quantiles - 1):
        head += base
        acc += sum(values[:head]) / head - overall
    return acc / (quantiles - 1)


def tail_overlap(
    gold_rank: Sequence[str], metric_rank: Sequence[str], cuts: Sequence[int]
) -> list[int]:
    """Shared segments between the top-c slices of two rankings, per cut."""
    if set(gold_rank) != set(metric_rank) or len(gold_rank) != len(metric_rank):
        raise ValueError("rankings must permute the same segment ids")
    n = len(gold_rank)
    counts: list[int] = []
    for cut in cuts:
        if cut < 0 or cut > n:
            raise ValueError(f"cut {cut} out of range for {n} segments")
        counts.append(len(set(gold_rank[:cut]) & set(metric_rank[:cut])))
    return counts
