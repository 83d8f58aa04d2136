"""Analysis tables over score columns: rank-eval, leave-one-out, tails, stats.

Every table builder but `build_scatter`, which takes the score rows, takes
their `ScoreViews`, plus the annotator where it works on one view, and returns
plain dicts and lists of Python values, ready to write. Inside, each metric is
a float64 column, effort-oriented and ranked once per table. Bad input raises
ValueError.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Collection, Iterable, Sequence

import numpy as np

from .corpus import ALL_ANNOTATORS, CorpusError, format_tsv, read_tsv_columns
from .rankeval import (
    DA_METRIC,
    GOLD_METRIC,
    METRICS,
    Metric,
    effort_oriented,
    rank_correlation,
    ranking,
    satra,
    tail_overlap,
)
from .stats import cluster_annotators, weighted_mean_std, williams_test
from .taskmetrics import FLOAT_FIELDS, SCORES_HEADER, SegmentScores


class ScoreViews:
    """Score rows as columns, one set per annotator view and one for ALL.

    `ScoreViews(rows)` checks row i as line i + 2 of the scores file that
    `format_tsv` writes for the rows, as `ScoreViews.read` checks a file. No
    row object is kept. Each view holds, in segment id order, a float64 column
    per field of FLOAT_FIELDS, NaN where a row has no value; all views share one int
    `mt_tokens` column: every row of a segment must carry the same
    `mt_tokens`. A view must cover every segment of the rows. That check is
    made when the view is asked for, so a command that needs only the ALL
    view runs when some annotator has gaps (`gaps` names them per view).
    """

    def __init__(self, rows: Iterable[SegmentScores]) -> None:
        # the text as one item: str.splitlines would also split an id at U+2028 and the like
        self._read([format_tsv(SCORES_HEADER, map(vars, rows))])

    @classmethod
    def read(cls, source: str | Path | Iterable[str]) -> ScoreViews:
        """The views of a scores file, a path or an iterable of lines, parsed and
        checked column by column. A bad file raises the error of its first bad
        line, in row order: the rows before a bad cell are grouped first, so a
        duplicate row among them is named before it."""
        views = cls.__new__(cls)
        views._read(source)
        return views

    def _read(self, source: str | Path | Iterable[str]) -> None:
        line, columns, error = read_tsv_columns(source, SegmentScores, "scores")
        self._group(*columns["segment_id"], *columns["annotator_id"], columns["mt_tokens"],
                    {f: columns[f] for f in FLOAT_FIELDS}, line)
        if error:
            raise error

    def _group(
        self, segment_codes: np.ndarray, segments: list[str],
        annotator_codes: np.ndarray, annotators: list[str],
        mt_tokens: np.ndarray, floats: dict[str, np.ndarray], line: Callable[[int], int],
    ) -> None:
        """Sort rows into views: row i is segment `segments[segment_codes[i]]`
        as annotator `annotators[annotator_codes[i]]`, codes numbered in order
        of first appearance. Raises CorpusError for the first row that repeats
        an earlier row's (segment, annotator) pair or differs in mt_tokens from
        its segment's first row (a repeat first), naming its `line`."""
        n = len(segments)
        first = np.unique(segment_codes, return_index=True)[1]  # first row of each segment
        differ = np.flatnonzero(mt_tokens != mt_tokens[first][segment_codes])
        by_id = sorted(range(n), key=segments.__getitem__)
        position = np.empty(n, dtype=np.int64)  # segment code -> place in segment id order
        position[by_id] = np.arange(n)
        keys = annotator_codes * n + position[segment_codes]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        repeats = order[1:][keys[1:] == keys[:-1]]  # stable: the later rows of each pair
        if len(repeats) or len(differ):
            row = int(np.concatenate([repeats, differ]).min())
            code = segment_codes[row]
            where = f"scores: line {line(row)}: "
            if row in repeats:
                raise CorpusError(f"{where}duplicate row for segment '{segments[code]}', "
                                  f"annotator '{annotators[annotator_codes[row]]}'")
            raise CorpusError(f"{where}mt_tokens {mt_tokens[row]} for segment '{segments[code]}'"
                              f" differs from {mt_tokens[first[code]]} on an earlier row")
        self.segment_ids = [segments[code] for code in by_id]
        self.annotators = sorted(set(annotators) - {ALL_ANNOTATORS})
        self._mt_tokens = mt_tokens[first][by_id]
        self._floats = floats
        self._rows: dict[str, np.ndarray] = {}  # view -> its rows in segment id order
        self.gaps: dict[str, list[str]] = {}  # view -> segment ids it lacks, in order
        counts = np.bincount(annotator_codes, minlength=len(annotators))
        for code, (annotator, end) in enumerate(zip(annotators, np.cumsum(counts))):
            rows = slice(end - counts[code], end)
            self._rows[annotator] = order[rows]
            covered = np.zeros(n, dtype=bool)
            covered[keys[rows] - code * n] = True
            self.gaps[annotator] = [self.segment_ids[i] for i in np.flatnonzero(~covered)]

    def column(self, annotator: str, field: str, optional: bool = False) -> np.ndarray:
        """One view's column in segment id order; a missing value raises unless `optional`."""
        if annotator not in self._rows:
            raise ValueError(f"no rows for annotator '{annotator}'")
        gaps = self.gaps[annotator]
        if gaps:
            more = f" (and {len(gaps) - 1} more)" if len(gaps) > 1 else ""
            raise ValueError(
                f"scores incomplete for annotator '{annotator}': missing segment '{gaps[0]}'{more}"
            )
        values = self._column(annotator, field)
        if not optional and np.isnan(values).any():
            sid = self.segment_ids[int(np.argmax(np.isnan(values)))]
            raise ValueError(
                f"missing {field} for annotator '{annotator}', segment '{sid}'"
                " (corpus without sessions?)"
            )
        return values

    def _column(self, annotator: str, field: str) -> np.ndarray:
        """One view's column in segment id order; a float column leaves the
        view's gaps out, `mt_tokens` is the one column of every segment."""
        if field == "mt_tokens":
            return self._mt_tokens
        return self._floats[field][self._rows[annotator]]


Ranked = tuple[np.ndarray, np.ndarray]  # a column's `ranking`: its order and its ranks


def _metric_vectors(
    views: ScoreViews, annotator: str, metrics: Sequence[Metric]
) -> tuple[dict[Metric, Ranked], list[str]]:
    """Each metric's `ranking` over a view; only DA may be missing, and is noted."""
    vectors: dict[Metric, Ranked] = {}
    notes: list[str] = []
    for metric in metrics:
        values = views.column(annotator, metric.field, optional=metric is DA_METRIC)
        if np.isnan(values).any():
            notes.append(f"metric {metric.name} unavailable; rows omitted")
        else:
            vectors[metric] = ranking(effort_oriented(values, metric.polarity))
    return vectors, notes


# ---------------------------------------------------------------------------
# rank-eval


def _rho_satra(
    metric: Metric, ranked: Ranked, gold_ranks: np.ndarray,
    times: np.ndarray, lengths: np.ndarray, where: str = "",
) -> dict:
    """The rho and SATRA cells of one metric's row: its ranking against the gold's ranks."""
    order, ranks = ranked
    try:
        rho = rank_correlation(ranks, gold_ranks)
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
    n = len(views.column(annotator, GOLD_METRIC.field))  # a missing gold is named first
    times = views.column(annotator, "pe_time_sec")
    lengths = views.column(annotator, "mt_tokens")
    vectors, notes = _metric_vectors(views, annotator, METRICS)
    gold_ranks = vectors[GOLD_METRIC][1]
    cells = {m: _rho_satra(m, v, gold_ranks, times, lengths) for m, v in vectors.items()}
    rho = {m: c["rho"] for m, c in cells.items()}
    ranked_metrics = [m for m in vectors if m is not GOLD_METRIC]
    best = max(ranked_metrics, key=lambda m: rho[m]) if ranked_metrics else None

    def williams_pair(a: Metric, b: Metric) -> tuple[float | None, float | None]:
        try:
            r12 = rank_correlation(vectors[a][1], vectors[b][1])
            result = williams_test(r12, rho[a], rho[b], n)
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


def check_loo(annotators: Collection[str]) -> None:
    """Raise ValueError unless there are at least 2 annotators to hold out in turn."""
    if len(annotators) < 2:
        raise ValueError("leave-one-out requires at least 2 annotators")


def _mean(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Per-segment mean of the columns, summed in order from 0.0 as Python's
    `sum` does (np.sum would sum pairwise, which can differ in the last bit)."""
    total = np.zeros(len(columns[0]))
    for values in columns:
        total += values
    return total / len(columns)


def build_loo_table(views: ScoreViews) -> dict:
    """Rho/SATRA of each annotator's metrics against the others' mean PETpW and time."""
    check_loo(views.annotators)
    table = []
    notes: list[str] = []
    for annotator in views.annotators:
        others = [a for a in views.annotators if a != annotator]
        gold = ranking(_mean([views.column(a, GOLD_METRIC.field) for a in others]))[1]  # ranks
        times = _mean([views.column(a, "pe_time_sec") for a in others])
        lengths = views.column(annotator, "mt_tokens")
        vectors, view_notes = _metric_vectors(views, annotator, [m for m in METRICS if m.loo])
        notes.extend(n for n in view_notes if n not in notes)
        for metric, ranked in vectors.items():
            cells = _rho_satra(metric, ranked, gold, times, lengths, f"annotator '{annotator}', ")
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
    n = len(views.column(ALL_ANNOTATORS, GOLD_METRIC.field))  # a missing gold is named first
    if max_cut > n:
        raise ValueError(f"max cut {max_cut} exceeds {n} segments")
    if step < 1 or max_cut < 1:
        raise ValueError("step and max cut must be >= 1")
    if step > max_cut:
        raise ValueError(f"step {step} exceeds max cut {max_cut}")
    cuts = list(range(step, max_cut + 1, step))

    def tail(ranked: Ranked) -> list[int]:
        order = ranked[0].tolist()
        return order[::-1] if side == "worst" else order

    vectors, notes = _metric_vectors(views, ALL_ANNOTATORS, METRICS)
    gold_rank = tail(vectors[GOLD_METRIC])
    out = []
    for metric, ranked in vectors.items():
        for cut, overlap in zip(cuts, tail_overlap(gold_rank, tail(ranked), cuts)):
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
        weights = views.column(annotator, "mt_tokens")
        for metric in METRICS:
            values = views.column(annotator, metric.field, optional=True)
            if np.isnan(values).any():
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
    # loo has already refused a view with fewer than 2 annotators, rank-eval a missing PETpW
    petpw = {a: views.column(a, GOLD_METRIC.field) for a in views.annotators}
    clusters = stage("clusters", cluster_annotators, petpw, ks_alpha)
    return {
        "stats_tables": stats_table["rows"],
        "ranking_table": ranking,
        "loo_table": loo_table["rows"],
        "tails": tails,
        "clusters": clusters,
        "notes": notes,
    }
