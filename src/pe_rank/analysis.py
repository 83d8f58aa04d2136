"""Analysis tables over score columns: rank-eval, leave-one-out, tails, stats.

Every table builder takes the `ScoreViews` of the score rows, plus the
annotator where it works on one view, and returns plain dicts and lists of
Python values, ready to write. Bad input raises ValueError.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import ALL_ANNOTATORS
from .rankeval import (
    DA_METRIC,
    GOLD_METRIC,
    METRICS,
    Metric,
    effort_order,
    effort_oriented,
    satra,
    spearman,
    tail_overlap,
)
from .stats import cluster_annotators, weighted_mean_std, williams_test
from .taskmetrics import SegmentScores

# The SegmentScores fields held as float64 columns (annotations are strings
# here: postponed evaluation).
FLOAT_FIELDS = tuple(f.name for f in fields(SegmentScores) if f.type.startswith("float"))
_float_cells = attrgetter(*FLOAT_FIELDS)


class ScoreViews:
    """Score rows as columns, one set per annotator view and one for ALL.

    The rows are read once and not kept. Each view holds, in segment id order,
    a float64 column per field of FLOAT_FIELDS, NaN where a row has no value
    (None), and shares the one int `mt_tokens` column: every row of a segment
    must carry the same `mt_tokens`. A view must cover every segment of the
    rows. That check is made when the view is asked for, so a command that
    needs only the ALL view runs when some annotator has gaps.
    """

    def __init__(self, rows: Iterable[SegmentScores]) -> None:
        read: dict[str, tuple[list[str], array]] = {}
        tokens: dict[str, int] = {}  # segment id -> mt_tokens
        missing = 0  # None cells, stored as NaN
        for row in rows:
            if row.annotator_id not in read:
                read[row.annotator_id] = ([], array("d"))
            ids, cells = read[row.annotator_id]
            ids.append(row.segment_id)
            if tokens.setdefault(row.segment_id, row.mt_tokens) != row.mt_tokens:
                raise ValueError(
                    f"segment '{row.segment_id}' has mt_tokens {tokens[row.segment_id]}"
                    f" and {row.mt_tokens}"
                )
            values = _float_cells(row)
            if None in values:
                missing += values.count(None)
                values = [math.nan if v is None else v for v in values]
            cells.extend(values)
        self.segment_ids = sorted(tokens)
        self.annotators = sorted(read.keys() - {ALL_ANNOTATORS})
        mt_tokens = np.array([tokens[sid] for sid in self.segment_ids])
        self._columns: dict[str, dict[str, np.ndarray]] = {}
        self._gaps: dict[str, list[str]] = {}
        for annotator, (ids, cells) in read.items():
            seen = set(ids)
            if len(seen) < len(ids):
                raise ValueError(f"annotator '{annotator}' has two rows for one segment")
            order = sorted(range(len(ids)), key=ids.__getitem__)
            block = np.frombuffer(cells).reshape(len(ids), len(FLOAT_FIELDS))[order]
            missing -= np.count_nonzero(np.isnan(block))
            self._columns[annotator] = dict(zip(FLOAT_FIELDS, block.T.copy()))
            self._columns[annotator]["mt_tokens"] = mt_tokens
            self._gaps[annotator] = sorted(tokens.keys() - seen)
        if missing:
            raise ValueError("NaN score in the rows (a missing value is None)")

    def column(self, annotator: str, field: str, optional: bool = False) -> np.ndarray:
        """One view's column in segment id order; a missing value raises unless `optional`."""
        if annotator not in self._columns:
            raise ValueError(f"no rows for annotator '{annotator}'")
        gaps = self._gaps[annotator]
        if gaps:
            more = f" (and {len(gaps) - 1} more)" if len(gaps) > 1 else ""
            raise ValueError(
                f"scores incomplete for annotator '{annotator}': missing segment '{gaps[0]}'{more}"
            )
        values = self._columns[annotator][field]
        if not optional and np.isnan(values).any():
            sid = self.segment_ids[int(np.argmax(np.isnan(values)))]
            raise ValueError(
                f"missing {field} for annotator '{annotator}', segment '{sid}'"
                " (corpus without sessions?)"
            )
        return values


def _metric_vectors(
    views: ScoreViews, annotator: str, metrics: Sequence[Metric]
) -> tuple[dict[Metric, list[float]], list[str]]:
    """Each metric's values over a view; only DA may be missing, and is noted."""
    vectors: dict[Metric, list[float]] = {}
    notes: list[str] = []
    for metric in metrics:
        values = views.column(annotator, metric.field, optional=metric is DA_METRIC)
        if np.isnan(values).any():
            notes.append(f"metric {metric.name} unavailable; rows omitted")
        else:
            vectors[metric] = values.tolist()
    return vectors, notes


# ---------------------------------------------------------------------------
# rank-eval


def _rho_satra(
    metric: Metric, values: Sequence[float], gold: Sequence[float],
    times: np.ndarray, lengths: np.ndarray, where: str = "",
) -> dict:
    """The rho and SATRA cells of one metric's row: its values against the gold."""
    try:
        rho = spearman(effort_oriented(values, metric.polarity), gold)
        order = effort_order(values, metric.polarity)
        satra_score = satra(times[order], lengths[order])
    except ValueError as exc:
        raise ValueError(f"{where}metric {metric.name}: {exc}") from None
    if not math.isfinite(rho):
        raise RuntimeError("internal invariant violation: non-finite rho")
    return {"rho": rho, "satra": satra_score}


def build_rank_table(views: ScoreViews, annotator: str, williams_alpha: float = 0.01) -> dict:
    """Rho and SATRA per metric for one annotator view, with Williams flags.

    The PETPW row is the oracle: the gold measurement ranked by itself.
    Pairs whose Williams statistic is undefined (tiny n, perfect correlation)
    get null p-values instead of failing the whole table.
    """
    gold = views.column(annotator, GOLD_METRIC.field).tolist()
    times = views.column(annotator, "pe_time_sec")
    lengths = views.column(annotator, "mt_tokens")
    vectors, notes = _metric_vectors(views, annotator, METRICS)
    cells = {m: _rho_satra(m, v, gold, times, lengths) for m, v in vectors.items()}
    rho = {m: c["rho"] for m, c in cells.items()}
    oriented = {m: effort_oriented(v, m.polarity) for m, v in vectors.items()}
    ranked_metrics = [m for m in vectors if m is not GOLD_METRIC]
    best = max(ranked_metrics, key=lambda m: rho[m]) if ranked_metrics else None

    def williams_pair(a: Metric, b: Metric) -> tuple[float | None, float | None]:
        try:
            result = williams_test(spearman(oriented[a], oriented[b]), rho[a], rho[b], len(gold))
        except ValueError:
            return None, None
        return result.t_stat, result.p_one_tailed

    pairs = []
    for i, a in enumerate(ranked_metrics):
        for b in ranked_metrics[i + 1 :]:
            t_stat, p = williams_pair(a, b)
            significant = None if p is None else p < williams_alpha
            pairs.append({"metric_a": a.name, "metric_b": b.name, "t": t_stat, "p": p,
                          "significant": significant})
    rows = []
    for metric in vectors:
        p_vs_best: float | None = None
        sig_vs_best: bool | None = None
        if best is not None and metric is not best and metric is not GOLD_METRIC:
            # one-tailed: is the best metric's correlation genuinely larger?
            _, p_vs_best = williams_pair(best, metric)
            sig_vs_best = None if p_vs_best is None else p_vs_best < williams_alpha
        rows.append({"metric": metric.name, **cells[metric], "best": metric is best,
                     "p_vs_best": p_vs_best, "sig_vs_best": sig_vs_best})
    return {"rows": rows, "williams_pairs": pairs, "notes": notes}


# ---------------------------------------------------------------------------
# leave-one-out


@dataclass(frozen=True)
class LOOGold:
    """Effort gold for one held-out annotator: the others' mean PETpW."""

    annotator_id: str
    segment_ids: tuple[str, ...]
    gold_petpw: tuple[float, ...]
    gold_times: tuple[float, ...]


def _loo_annotators(views: ScoreViews) -> list[str]:
    if len(views.annotators) < 2:
        raise ValueError("leave-one-out requires at least 2 annotators")
    return views.annotators


def _mean(columns: Sequence[np.ndarray]) -> tuple[float, ...]:
    """Per-segment mean of the columns, summed in order from 0.0 as Python's
    `sum` does (np.sum would sum pairwise, which can differ in the last bit)."""
    total = np.zeros(len(columns[0]))
    for values in columns:
        total += values
    return tuple((total / len(columns)).tolist())


def loo_gold(views: ScoreViews, annotator: str) -> LOOGold:
    """Per-segment mean PETpW and mean time of every *other* annotator."""
    annotators = _loo_annotators(views)
    if annotator not in annotators:
        raise ValueError(f"unknown annotator '{annotator}'")
    others = [a for a in annotators if a != annotator]
    return LOOGold(
        annotator_id=annotator,
        segment_ids=tuple(views.segment_ids),
        gold_petpw=_mean([views.column(a, GOLD_METRIC.field) for a in others]),
        gold_times=_mean([views.column(a, "pe_time_sec") for a in others]),
    )


def build_loo_table(views: ScoreViews) -> dict:
    """Rho/SATRA of each annotator's metrics against the others' mean PETpW."""
    table = []
    notes: list[str] = []
    for annotator in _loo_annotators(views):
        gold = loo_gold(views, annotator)
        times = np.array(gold.gold_times)
        lengths = views.column(annotator, "mt_tokens")
        vectors, view_notes = _metric_vectors(views, annotator, [m for m in METRICS if m.loo])
        notes.extend(n for n in view_notes if n not in notes)
        for metric, values in vectors.items():
            cells = _rho_satra(
                metric, values, gold.gold_petpw, times, lengths, f"annotator '{annotator}', "
            )
            table.append({"annotator": annotator, "metric": metric.name, **cells})
    return {"rows": table, "notes": notes}


# ---------------------------------------------------------------------------
# tails


def build_tails(views: ScoreViews, side: str, max_cut: int, step: int) -> dict:
    """Overlap counts between the gold PETpW tail and each metric's tail.

    `best` compares the least-effort ends, `worst` the reversed rankings.
    Computed on the ALL (annotator-averaged) view.
    """
    if side not in ("best", "worst"):
        raise ValueError(f"side must be 'best' or 'worst', got {side!r}")
    gold = views.column(ALL_ANNOTATORS, GOLD_METRIC.field).tolist()
    n = len(gold)
    if max_cut > n:
        raise ValueError(f"max cut {max_cut} exceeds {n} segments")
    if step < 1 or max_cut < 1:
        raise ValueError("step and max cut must be >= 1")
    if step > max_cut:
        raise ValueError(f"step {step} exceeds max cut {max_cut}")
    cuts = list(range(step, max_cut + 1, step))

    def ranking(values: Sequence[float], metric: Metric) -> list[int]:
        ranked = effort_order(values, metric.polarity).tolist()
        return ranked[::-1] if side == "worst" else ranked

    gold_rank = ranking(gold, GOLD_METRIC)
    vectors, notes = _metric_vectors(views, ALL_ANNOTATORS, METRICS)
    out = []
    for metric, values in vectors.items():
        for cut, overlap in zip(cuts, tail_overlap(gold_rank, ranking(values, metric), cuts)):
            out.append({"cut": cut, "metric": metric.name, "overlap": overlap})
    out.sort(key=lambda r: r["cut"])  # stable: metrics keep their order within a cut
    return {"rows": out, "notes": notes}


# ---------------------------------------------------------------------------
# report-only tables


def build_stats_table(views: ScoreViews) -> dict:
    """Weighted mean/std of every metric per annotator view; weights are MT words."""
    table = []
    notes: list[str] = []
    for annotator in views.annotators + [ALL_ANNOTATORS]:
        weights = views.column(annotator, "mt_tokens").tolist()
        for metric in METRICS:
            values = views.column(annotator, metric.field, optional=True)
            if np.isnan(values).any():
                notes.append(f"metric {metric.name} unavailable for '{annotator}'; rows omitted")
                continue
            mean, std = weighted_mean_std(values.tolist(), weights)
            table.append(
                {"annotator": annotator, "metric": metric.name, "mean": mean, "std": std}
            )
    return {"rows": table, "notes": notes}


def build_scatter(rows: Sequence[SegmentScores]) -> list[tuple[str, str, str, float, float]]:
    """(segment_id, annotator, metric, value, petpw) rows for plotting."""
    out: list[tuple[str, str, str, float, float]] = []
    ordered = sorted(rows, key=lambda r: (r.segment_id, r.annotator_id))
    for r in ordered:
        if r.petpw is None:
            continue
        for metric in METRICS:
            value = getattr(r, metric.field)
            if metric is GOLD_METRIC or value is None:
                continue
            out.append((r.segment_id, r.annotator_id, metric.name, value, r.petpw))
    return out


def petpw_by_annotator(views: ScoreViews) -> dict[str, list[float]]:
    return {a: views.column(a, GOLD_METRIC.field).tolist() for a in views.annotators}


# ---------------------------------------------------------------------------
# report


def stage(name: str, fn: Callable, *args):
    """fn(*args), with an input error re-raised as a ValueError naming the stage."""
    try:
        return fn(*args)
    except (ValueError, OSError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def build_report(views: ScoreViews, williams_alpha: float, ks_alpha: float) -> dict:
    """Every table of a report, keyed as in report.json, with their notes."""
    stats_table = stage("stats", build_stats_table, views)
    notes = [f"stats: {n}" for n in dict.fromkeys(stats_table["notes"])]
    ranking: dict[str, dict] = {}
    for annotator in views.annotators + [ALL_ANNOTATORS]:
        table = stage("rank-eval", build_rank_table, views, annotator, williams_alpha)
        ranking[annotator] = {"rows": table["rows"], "williams_pairs": table["williams_pairs"]}
        notes.extend(f"rank-eval[{annotator}]: {n}" for n in table["notes"])
    loo_table = stage("loo", build_loo_table, views)
    notes.extend(f"loo: {n}" for n in loo_table["notes"])
    max_cut = min(500, len(views.segment_ids))
    step = min(50, max_cut)
    tails = {}
    for side in ("best", "worst"):
        table = stage("tails", build_tails, views, side, max_cut, step)
        tails[side] = table["rows"]
        notes.extend(f"tails[{side}]: {n}" for n in table["notes"])
    if len(views.annotators) >= 2:
        petpw = stage("clusters", petpw_by_annotator, views)
        clusters = stage("clusters", cluster_annotators, petpw, ks_alpha)
    else:
        clusters = []
        notes.append("clusters: fewer than 2 annotators; clustering skipped")
    return {
        "stats_tables": stats_table["rows"],
        "ranking_table": ranking,
        "loo_table": loo_table["rows"],
        "tails": tails,
        "clusters": clusters,
        "notes": notes,
    }
