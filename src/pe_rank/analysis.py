"""Analysis tables over score rows: rank-eval, leave-one-out, tails, stats.

Every function takes score rows (or the `ScoreViews` built from them) and
returns plain dicts and lists, ready to write. Bad input raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .corpus import ALL_ANNOTATORS
from .rankeval import (
    DA_METRIC,
    GOLD_METRIC,
    METRICS,
    Metric,
    RankInstance,
    effort_order,
    effort_oriented,
    satra,
    spearman,
    tail_overlap,
)
from .stats import cluster_annotators, weighted_mean_std, williams_test
from .taskmetrics import SegmentScores


class ScoreViews:
    """Annotator views of score rows, each built once, when first asked for.

    A view holds one annotator's rows (or the ALL rows) in segment id order
    and must cover every segment in the rows. The check is made per view, so
    a command that needs only the ALL view runs when some annotator has gaps.
    """

    def __init__(self, rows: Sequence[SegmentScores]) -> None:
        self.rows = rows
        self.segment_ids = sorted({r.segment_id for r in rows})
        self.annotators = sorted({r.annotator_id for r in rows} - {ALL_ANNOTATORS})
        self._views: dict[str, list[SegmentScores]] = {}
        self._columns: dict[tuple[str, str], list[float]] = {}

    def view(self, annotator: str) -> list[SegmentScores]:
        """All rows of one annotator view, sorted by segment id, gap-checked."""
        if annotator not in self._views:
            selected = {r.segment_id: r for r in self.rows if r.annotator_id == annotator}
            if not selected:
                raise ValueError(f"no rows for annotator '{annotator}'")
            missing = [sid for sid in self.segment_ids if sid not in selected]
            if missing:
                raise ValueError(
                    f"scores incomplete for annotator '{annotator}': missing segment '{missing[0]}'"
                )
            self._views[annotator] = [selected[sid] for sid in self.segment_ids]
        return self._views[annotator]

    def measured(self, annotator: str, field: str) -> list[float]:
        """One view's PETpW or time column, which no row may lack; built once."""
        if (annotator, field) not in self._columns:
            self._columns[annotator, field] = _measured(self.view(annotator), field)
        return self._columns[annotator, field]


def _views(rows: Sequence[SegmentScores] | ScoreViews) -> ScoreViews:
    return rows if isinstance(rows, ScoreViews) else ScoreViews(rows)


def _metric_vectors(
    view: Sequence[SegmentScores], metrics: Sequence[Metric]
) -> tuple[dict[Metric, list[float]], list[str]]:
    """Each metric's values over a view; only DA may be missing, and is noted."""
    vectors: dict[Metric, list[float]] = {}
    notes: list[str] = []
    for metric in metrics:
        values = [getattr(r, metric.field) for r in view]
        if None not in values:
            vectors[metric] = values
        elif metric is DA_METRIC:
            notes.append(f"metric {metric.name} unavailable; rows omitted")
        else:
            raise ValueError(f"scores incomplete: missing {metric.name} value")
    return vectors, notes


def _measured(view: Sequence[SegmentScores], field: str) -> list[float]:
    """A column measured in the sessions (PETpW or time), which no row may lack."""
    values = [getattr(r, field) for r in view]
    if None in values:
        row = view[values.index(None)]
        raise ValueError(
            f"missing {field} for annotator '{row.annotator_id}', segment '{row.segment_id}'"
            " (corpus without sessions?)"
        )
    return values


# ---------------------------------------------------------------------------
# rank-eval


def _rho_satra(
    view: Sequence[SegmentScores],
    metric: Metric,
    values: Sequence[float],
    gold: Sequence[float],
    times: Sequence[float],
    where: str = "",
) -> dict:
    """The rho and SATRA cells of one metric's row: its values against the gold."""
    try:
        rho = spearman(effort_oriented(values, metric.polarity), gold)
    except ValueError as exc:
        raise ValueError(f"{where}metric {metric.name}: {exc}") from None
    order = effort_order(values, metric.polarity).tolist()
    satra_score = satra(
        RankInstance(
            segment_ids=tuple(view[i].segment_id for i in order),
            times=tuple(times[i] for i in order),
            lengths=tuple(view[i].mt_tokens for i in order),
        )
    )
    if not (math.isfinite(rho) and math.isfinite(satra_score)):
        raise RuntimeError("internal invariant violation: non-finite rho/satra")
    return {"rho": rho, "satra": satra_score}


def build_rank_table(
    view: Sequence[SegmentScores], williams_alpha: float = 0.01
) -> dict:
    """Rho and SATRA per metric for one annotator view, with Williams flags.

    The PETPW row is the oracle: the gold measurement ranked by itself.
    Pairs whose Williams statistic is undefined (tiny n, perfect correlation)
    get null p-values instead of failing the whole table.
    """
    gold = _measured(view, GOLD_METRIC.field)
    times = _measured(view, "pe_time_sec")
    vectors, notes = _metric_vectors(view, METRICS)
    cells = {m: _rho_satra(view, m, v, gold, times) for m, v in vectors.items()}
    rho = {m: c["rho"] for m, c in cells.items()}
    oriented = {m: effort_oriented(v, m.polarity) for m, v in vectors.items()}
    ranked_metrics = [m for m in vectors if m is not GOLD_METRIC]
    best = max(ranked_metrics, key=lambda m: rho[m]) if ranked_metrics else None

    def williams_pair(a: Metric, b: Metric) -> tuple[float | None, float | None]:
        try:
            result = williams_test(spearman(oriented[a], oriented[b]), rho[a], rho[b], len(view))
        except ValueError:
            return None, None
        return result.t_stat, result.p_one_tailed

    pairs = []
    for i, a in enumerate(ranked_metrics):
        for b in ranked_metrics[i + 1 :]:
            t_stat, p = williams_pair(a, b)
            pairs.append(
                {
                    "metric_a": a.name,
                    "metric_b": b.name,
                    "t": t_stat,
                    "p": p,
                    "significant": None if p is None else p < williams_alpha,
                }
            )
    rows = []
    for metric in vectors:
        p_vs_best: float | None = None
        sig_vs_best: bool | None = None
        if best is not None and metric is not best and metric is not GOLD_METRIC:
            # one-tailed: is the best metric's correlation genuinely larger?
            _, p_vs_best = williams_pair(best, metric)
            sig_vs_best = None if p_vs_best is None else p_vs_best < williams_alpha
        rows.append(
            {
                "metric": metric.name,
                **cells[metric],
                "best": metric is best,
                "p_vs_best": p_vs_best,
                "sig_vs_best": sig_vs_best,
            }
        )
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


def loo_gold(rows: Sequence[SegmentScores] | ScoreViews, annotator: str) -> LOOGold:
    """Per-segment mean PETpW and mean time of every *other* annotator."""
    views = _views(rows)
    annotators = _loo_annotators(views)
    if annotator not in annotators:
        raise ValueError(f"unknown annotator '{annotator}'")
    others = [a for a in annotators if a != annotator]
    petpws = [views.measured(a, GOLD_METRIC.field) for a in others]
    times = [views.measured(a, "pe_time_sec") for a in others]
    return LOOGold(
        annotator_id=annotator,
        segment_ids=tuple(views.segment_ids),
        gold_petpw=tuple(sum(values) / len(values) for values in zip(*petpws)),
        gold_times=tuple(sum(values) / len(values) for values in zip(*times)),
    )


def build_loo_table(rows: Sequence[SegmentScores] | ScoreViews) -> dict:
    """Rho/SATRA of each annotator's metrics against the others' mean PETpW."""
    views = _views(rows)
    table = []
    notes: list[str] = []
    for annotator in _loo_annotators(views):
        view = views.view(annotator)
        gold = loo_gold(views, annotator)
        vectors, view_notes = _metric_vectors(view, [m for m in METRICS if m.loo])
        notes.extend(n for n in view_notes if n not in notes)
        for metric, values in vectors.items():
            cells = _rho_satra(
                view, metric, values, gold.gold_petpw, gold.gold_times, f"annotator '{annotator}', "
            )
            table.append({"annotator": annotator, "metric": metric.name, **cells})
    return {"rows": table, "notes": notes}


# ---------------------------------------------------------------------------
# tails


def build_tails(
    rows: Sequence[SegmentScores] | ScoreViews, side: str, max_cut: int, step: int
) -> dict:
    """Overlap counts between the gold PETpW tail and each metric's tail.

    `best` compares the least-effort ends, `worst` the reversed rankings.
    Computed on the ALL (annotator-averaged) view.
    """
    if side not in ("best", "worst"):
        raise ValueError(f"side must be 'best' or 'worst', got {side!r}")
    view = _views(rows).view(ALL_ANNOTATORS)
    n = len(view)
    if max_cut > n:
        raise ValueError(f"max cut {max_cut} exceeds {n} segments")
    if step < 1 or max_cut < 1:
        raise ValueError("step and max cut must be >= 1")
    if step > max_cut:
        raise ValueError(f"step {step} exceeds max cut {max_cut}")
    gold = _measured(view, GOLD_METRIC.field)
    cuts = list(range(step, max_cut + 1, step))

    def ranking(values: Sequence[float], metric: Metric) -> list[str]:
        ranked = [view[i].segment_id for i in effort_order(values, metric.polarity).tolist()]
        return ranked[::-1] if side == "worst" else ranked

    gold_rank = ranking(gold, GOLD_METRIC)
    vectors, notes = _metric_vectors(view, METRICS)
    out = []
    for metric, values in vectors.items():
        for cut, overlap in zip(cuts, tail_overlap(gold_rank, ranking(values, metric), cuts)):
            out.append({"cut": cut, "metric": metric.name, "overlap": overlap})
    out.sort(key=lambda r: r["cut"])  # stable: metrics keep their order within a cut
    return {"rows": out, "notes": notes}


# ---------------------------------------------------------------------------
# report-only tables


def build_stats_table(rows: Sequence[SegmentScores] | ScoreViews) -> dict:
    """Weighted mean/std of every metric per annotator view; weights are MT words."""
    views = _views(rows)
    table = []
    notes: list[str] = []
    for annotator in views.annotators + [ALL_ANNOTATORS]:
        view = views.view(annotator)
        weights = [float(r.mt_tokens) for r in view]
        for metric in METRICS:
            values = [getattr(r, metric.field) for r in view]
            if any(v is None for v in values):
                notes.append(f"metric {metric.name} unavailable for '{annotator}'; rows omitted")
                continue
            mean, std = weighted_mean_std(values, weights)
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


def petpw_by_annotator(rows: Sequence[SegmentScores] | ScoreViews) -> dict[str, list[float]]:
    views = _views(rows)
    return {a: views.measured(a, GOLD_METRIC.field) for a in views.annotators}


# ---------------------------------------------------------------------------
# report


def stage(name: str, fn: Callable, *args):
    """fn(*args), with an input error re-raised as a ValueError naming the stage."""
    try:
        return fn(*args)
    except (ValueError, OSError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def build_report(
    rows: Sequence[SegmentScores], williams_alpha: float, ks_alpha: float
) -> dict:
    """Every table of a report, keyed as in report.json, with their notes."""
    views = ScoreViews(rows)
    stats_table = stage("stats", build_stats_table, views)
    notes = [f"stats: {n}" for n in dict.fromkeys(stats_table["notes"])]
    ranking: dict[str, dict] = {}
    for annotator in views.annotators + [ALL_ANNOTATORS]:
        table = stage("rank-eval", lambda: build_rank_table(views.view(annotator), williams_alpha))
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
