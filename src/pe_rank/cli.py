"""Command-line pipeline: score a corpus, evaluate rankings, build reports.

Commands
  score      per-(segment, annotator) metric table plus an ALL row per segment
  rank-eval  Spearman/SATRA table for one annotator view, with Williams flags
  loo        leave-one-out table: each annotator against the others' mean PETpW
  tails      overlap between the gold tail and each metric's tail, per cut
  report     everything above plus weighted stats, clusters, and scatter data

All outputs are plain TSV/CSV/JSON, byte-identical across reruns on the same
inputs. Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .corpus import (
    ALL_ANNOTATORS,
    Corpus,
    CorpusError,
    escape_field,
    load_corpus,
    unescape_field,
)
from .rankeval import (
    DA_METRIC,
    GOLD_METRIC,
    METRICS,
    Metric,
    RankInstance,
    effort_oriented,
    rank_by,
    satra,
    spearman,
    tail_overlap,
)
from .stats import cluster_annotators, weighted_mean_std, williams_test
from .taskmetrics import SegmentScores, all_view, reference_scores, score_segment
from .textmetrics import ter  # noqa: F401 - perfbench/test_generate.py traces this binding

# Scores-file columns: the SegmentScores fields, with their annotation strings.
_COLUMNS = tuple((f.name, f.type) for f in fields(SegmentScores))
SCORES_HEADER = tuple(name for name, _ in _COLUMNS)


class CliError(ValueError):
    """Bad input to a command; reported on stderr with exit status 1."""


# ---------------------------------------------------------------------------
# scores table


def score_corpus(corpus: Corpus) -> list[SegmentScores]:
    """Score every (segment, annotator) pair plus an ALL row per segment.

    Rows come back sorted by segment id, then annotator id, with the ALL row
    last within each segment. Segments without sessions get a reference-only
    ALL row.
    """
    sessions_index = corpus.sessions_by_segment()
    out: list[SegmentScores] = []
    for seg in sorted(corpus.segments, key=lambda s: s.id):
        rows = [score_segment(seg, sess) for sess in sessions_index[seg.id]]
        rows.append(all_view(rows) if rows else reference_scores(seg))
        out.extend(rows)
    return out


def _fmt(value) -> str:
    """One output cell; None is an empty cell."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return escape_field(str(value))


def write_scores(rows: Sequence[SegmentScores], path: str | Path) -> None:
    lines = ["\t".join(SCORES_HEADER)]
    lines.extend("\t".join(_fmt(getattr(r, name)) for name in SCORES_HEADER) for r in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_cell(raw: str, column: str, annotation: str, lineno: int):
    """One scores-file cell, parsed by its annotation: str, int, float or float | None."""
    if annotation == "str":
        return unescape_field(raw)
    if annotation == "int":
        try:
            return int(raw)
        except ValueError:
            raise CliError(f"scores line {lineno}: non-numeric {column}") from None
    if raw == "":
        if annotation == "float":
            raise CliError(f"scores line {lineno}: missing reference-based metric")
        return None
    try:
        value = float(raw)
    except ValueError:
        raise CliError(f"scores line {lineno}: non-numeric {column} {raw!r}") from None
    if not math.isfinite(value):
        raise CliError(f"scores line {lineno}: non-finite {column} {raw!r}")
    return value


def _data_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, line) for each non-empty line of a file, split on LF only.

    Lines are read one at a time, so a large file's text is never held whole.
    """
    try:
        with open(path, encoding="utf-8", newline="\n") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line:
                    yield lineno, line
    except OSError as exc:
        raise CliError(f"cannot read scores file: {exc}") from None


def read_scores(path: str | Path) -> list[SegmentScores]:
    """Parse a scores file written by `score` (or an equivalent producer).

    Rejects non-finite numbers and a second row for the same (segment,
    annotator) pair, naming the line.
    """
    lines = _data_lines(path)
    _, header = next(lines, (0, None))
    if header is None:
        raise CliError("scores file is empty")
    if tuple(header.split("\t")) != SCORES_HEADER:
        raise CliError(
            "scores file header mismatch: expected "
            + "\t".join(SCORES_HEADER).replace("\t", ", ")
        )
    rows: list[SegmentScores] = []
    seen: dict[str, set[str]] = {}  # annotator -> segment ids read so far
    for lineno, line in lines:
        cells = line.split("\t")
        if len(cells) != len(SCORES_HEADER):
            raise CliError(f"scores line {lineno}: wrong field count")
        row = SegmentScores(
            *(
                _parse_cell(raw, column, annotation, lineno)
                for raw, (column, annotation) in zip(cells, _COLUMNS)
            )
        )
        segments = seen.setdefault(row.annotator_id, set())
        if row.segment_id in segments:
            raise CliError(
                f"scores line {lineno}: duplicate row for segment "
                f"'{row.segment_id}', annotator '{row.annotator_id}'"
            )
        segments.add(row.segment_id)
        rows.append(row)
    return rows


class ScoreViews:
    """Annotator views of score rows, each built once, when first asked for.

    A view holds one annotator's rows (or the ALL rows) in segment id order
    and must cover every segment in the rows. The check is made per view, so
    a command that needs only the ALL view runs when some annotator has gaps.
    """

    def __init__(self, rows: Sequence[SegmentScores]) -> None:
        self.rows = rows
        self.segment_ids = sorted({r.segment_id for r in rows})
        self._views: dict[str, list[SegmentScores]] = {}

    @functools.cached_property
    def annotators(self) -> list[str]:
        return sorted({r.annotator_id for r in self.rows if r.annotator_id != ALL_ANNOTATORS})

    def view(self, annotator: str) -> list[SegmentScores]:
        """All rows of one annotator view, sorted by segment id, gap-checked."""
        if annotator not in self._views:
            selected = {r.segment_id: r for r in self.rows if r.annotator_id == annotator}
            if not selected:
                raise CliError(f"no rows for annotator '{annotator}'")
            missing = [sid for sid in self.segment_ids if sid not in selected]
            if missing:
                raise CliError(
                    f"scores incomplete for annotator '{annotator}': missing segment '{missing[0]}'"
                )
            self._views[annotator] = [selected[sid] for sid in self.segment_ids]
        return self._views[annotator]


def _views(rows: Sequence[SegmentScores] | ScoreViews) -> ScoreViews:
    return rows if isinstance(rows, ScoreViews) else ScoreViews(rows)


def _metric_vector(view: Sequence[SegmentScores], metric: Metric) -> list[float] | None:
    values = [getattr(r, metric.field) for r in view]
    if any(v is None for v in values):
        if metric is DA_METRIC:
            return None  # DA column is optional; callers omit its rows
        raise CliError(f"scores incomplete: missing {metric.name} value")
    return values


# ---------------------------------------------------------------------------
# rank-eval


def _satra_for_values(
    view: Sequence[SegmentScores],
    values: Sequence[float],
    metric: Metric,
    times: Sequence[float],
) -> float:
    by_id = {r.segment_id: i for i, r in enumerate(view)}
    ranking = rank_by({r.segment_id: v for r, v in zip(view, values)}, metric.polarity)
    return satra(
        RankInstance(
            segment_ids=tuple(ranking),
            times=tuple(times[by_id[sid]] for sid in ranking),
            lengths=tuple(view[by_id[sid]].mt_tokens for sid in ranking),
        )
    )


def build_rank_table(
    view: Sequence[SegmentScores], williams_alpha: float = 0.01
) -> dict:
    """Rho and SATRA per metric for one annotator view, with Williams flags.

    The PETPW row is the oracle: the gold measurement ranked by itself.
    Pairs whose Williams statistic is undefined (tiny n, perfect correlation)
    get null p-values instead of failing the whole table.
    """
    gold = [r.petpw for r in view]
    if any(v is None for v in gold):
        raise CliError("scores file has no PETPW gold (corpus without sessions?)")
    times = [r.pe_time_sec for r in view]
    if any(t is None for t in times):
        raise CliError("scores file has no pe_time_sec (corpus without sessions?)")
    vectors: dict[Metric, list[float]] = {}
    notes: list[str] = []
    for metric in METRICS:
        values = _metric_vector(view, metric)
        if values is None:
            notes.append(f"metric {metric.name} unavailable; rows omitted")
        else:
            vectors[metric] = values
    oriented = {m: effort_oriented(v, m.polarity) for m, v in vectors.items()}
    rho = {m: spearman(oriented[m], gold) for m in vectors}
    satra_scores = {m: _satra_for_values(view, v, m, times) for m, v in vectors.items()}
    ranked_metrics = [m for m in vectors if m is not GOLD_METRIC]
    best = max(ranked_metrics, key=lambda m: rho[m]) if ranked_metrics else None
    # spearman is symmetric to the bit, so one inter-metric rho serves both
    # orders of a pair
    inter: dict[frozenset[Metric], float] = {}

    def williams_pair(a: Metric, b: Metric) -> tuple[float | None, float | None]:
        try:
            key = frozenset((a, b))
            if key not in inter:
                inter[key] = spearman(oriented[a], oriented[b])
            result = williams_test(inter[key], rho[a], rho[b], len(view))
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
                "rho": rho[metric],
                "satra": satra_scores[metric],
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
        raise CliError("leave-one-out requires at least 2 annotators")
    return views.annotators


def loo_gold(rows: Sequence[SegmentScores] | ScoreViews, annotator: str) -> LOOGold:
    """Per-segment mean PETpW and mean time of every *other* annotator."""
    views = _views(rows)
    annotators = _loo_annotators(views)
    if annotator not in annotators:
        raise CliError(f"unknown annotator '{annotator}'")
    others = {a: views.view(a) for a in annotators if a != annotator}
    ids = views.segment_ids
    gold_petpw: list[float] = []
    gold_times: list[float] = []
    for i, sid in enumerate(ids):
        pws = []
        times = []
        for a, view in others.items():
            row = view[i]
            if row.petpw is None or row.pe_time_sec is None:
                raise CliError(f"missing PETPW for annotator '{a}', segment '{sid}'")
            pws.append(row.petpw)
            times.append(row.pe_time_sec)
        gold_petpw.append(sum(pws) / len(pws))
        gold_times.append(sum(times) / len(times))
    return LOOGold(
        annotator_id=annotator,
        segment_ids=tuple(ids),
        gold_petpw=tuple(gold_petpw),
        gold_times=tuple(gold_times),
    )


def build_loo_table(rows: Sequence[SegmentScores] | ScoreViews) -> dict:
    """Rho/SATRA of each annotator's metrics against the others' mean PETpW."""
    views = _views(rows)
    table = []
    notes: list[str] = []
    for annotator in _loo_annotators(views):
        view = views.view(annotator)
        gold = loo_gold(views, annotator)
        for metric in (m for m in METRICS if m.loo):
            values = _metric_vector(view, metric)
            if values is None:
                note = f"metric {metric.name} unavailable; rows omitted"
                if note not in notes:
                    notes.append(note)
                continue
            oriented = effort_oriented(values, metric.polarity)
            table.append(
                {
                    "annotator": annotator,
                    "metric": metric.name,
                    "rho": spearman(oriented, list(gold.gold_petpw)),
                    "satra": _satra_for_values(view, values, metric, gold.gold_times),
                }
            )
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
        raise CliError(f"side must be 'best' or 'worst', got {side!r}")
    view = _views(rows).view(ALL_ANNOTATORS)
    n = len(view)
    if max_cut > n:
        raise CliError(f"max cut {max_cut} exceeds {n} segments")
    if step < 1 or max_cut < 1:
        raise CliError("step and max cut must be >= 1")
    gold = [r.petpw for r in view]
    if any(v is None for v in gold):
        raise CliError("scores file has no PETPW gold (corpus without sessions?)")
    cuts = list(range(step, max_cut + 1, step))
    gold_rank = rank_by({r.segment_id: v for r, v in zip(view, gold)}, GOLD_METRIC.polarity)
    if side == "worst":
        gold_rank = list(reversed(gold_rank))
    out = []
    notes: list[str] = []
    for metric in METRICS:
        values = _metric_vector(view, metric)
        if values is None:
            notes.append(f"metric {metric.name} unavailable; rows omitted")
            continue
        metric_rank = rank_by(
            {r.segment_id: v for r, v in zip(view, values)}, metric.polarity
        )
        if side == "worst":
            metric_rank = list(reversed(metric_rank))
        for cut, overlap in zip(cuts, tail_overlap(gold_rank, metric_rank, cuts)):
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
                note = f"metric {metric.name} unavailable for '{annotator}'; rows omitted"
                notes.append(note)
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
    result: dict[str, list[float]] = {}
    for annotator in views.annotators:
        values = [r.petpw for r in views.view(annotator)]
        if any(v is None for v in values):
            raise CliError(f"missing PETPW for annotator '{annotator}'")
        result[annotator] = values
    return result


# ---------------------------------------------------------------------------
# commands


def _write_tsv(path: Path, header: Sequence[str], rows: Iterable[dict]) -> None:
    """One line per row dict, holding its values under the header's keys."""
    lines = ["\t".join(header)]
    lines.extend("\t".join(_fmt(row[key]) for key in header) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_rho_satra(rows: Iterable[dict]) -> None:
    for r in rows:
        if not (math.isfinite(r["rho"]) and math.isfinite(r["satra"])):
            raise RuntimeError("internal invariant violation: non-finite rho/satra")


def cmd_score(args: argparse.Namespace) -> None:
    corpus = load_corpus(args.segments, args.sessions)
    rows = score_corpus(corpus)
    write_scores(rows, args.out)


_RANK_HEADER = ("metric", "rho", "satra", "best", "p_vs_best", "sig_vs_best")
_PAIR_HEADER = ("metric_a", "metric_b", "t", "p", "significant")
_LOO_HEADER = ("annotator", "metric", "rho", "satra")
_TAILS_HEADER = ("cut", "metric", "overlap")


def cmd_rank_eval(args: argparse.Namespace) -> None:
    view = ScoreViews(read_scores(args.scores)).view(args.annotator)
    table = build_rank_table(view, williams_alpha=args.williams_alpha)
    _check_rho_satra(table["rows"])
    out = Path(args.out)
    _write_tsv(out, _RANK_HEADER, table["rows"])
    _write_tsv(out.with_name(out.name + ".williams.tsv"), _PAIR_HEADER, table["williams_pairs"])


def cmd_loo(args: argparse.Namespace) -> None:
    table = build_loo_table(read_scores(args.scores))
    _check_rho_satra(table["rows"])
    _write_tsv(Path(args.out), _LOO_HEADER, table["rows"])


def cmd_tails(args: argparse.Namespace) -> None:
    table = build_tails(read_scores(args.scores), args.side, args.max, args.step)
    _write_tsv(Path(args.out), _TAILS_HEADER, table["rows"])


def _stage(name: str, fn: Callable, *fn_args):
    try:
        return fn(*fn_args)
    except (CorpusError, CliError, ValueError, OSError) as exc:
        raise CliError(f"{name}: {exc}") from None


def cmd_report(args: argparse.Namespace) -> None:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    corpus = _stage("load", load_corpus, args.segments, args.sessions)
    rows = _stage("score", score_corpus, corpus)
    _stage("score", write_scores, rows, out_dir / "scores.tsv")
    views = ScoreViews(rows)

    notes: list[str] = []
    stats_table = _stage("stats", build_stats_table, views)
    notes.extend(f"stats: {n}" for n in dict.fromkeys(stats_table["notes"]))
    _write_tsv(out_dir / "stats.tsv", ("annotator", "metric", "mean", "std"), stats_table["rows"])

    ranking_table: dict[str, dict] = {}
    for annotator in views.annotators + [ALL_ANNOTATORS]:
        view = _stage("rank-eval", views.view, annotator)
        table = _stage("rank-eval", build_rank_table, view, args.williams_alpha)
        ranking_table[annotator] = table
        notes.extend(f"rank-eval[{annotator}]: {n}" for n in table["notes"])
    _check_rho_satra(r for table in ranking_table.values() for r in table["rows"])
    for name, key, header in (
        ("ranking.tsv", "rows", _RANK_HEADER),
        ("williams.tsv", "williams_pairs", _PAIR_HEADER),
    ):
        _write_tsv(
            out_dir / name,
            ("annotator",) + header,
            ({"annotator": a, **r} for a, table in ranking_table.items() for r in table[key]),
        )

    loo_table = _stage("loo", build_loo_table, views)
    notes.extend(f"loo: {n}" for n in loo_table["notes"])
    _write_tsv(out_dir / "loo.tsv", _LOO_HEADER, loo_table["rows"])

    max_cut = min(500, len(views.segment_ids))
    step = min(50, max_cut)
    tails = {}
    for side in ("best", "worst"):
        table = _stage("tails", build_tails, views, side, max_cut, step)
        tails[side] = table["rows"]
        notes.extend(f"tails[{side}]: {n}" for n in table["notes"])
        _write_tsv(out_dir / f"tails_{side}.tsv", _TAILS_HEADER, table["rows"])

    if len(views.annotators) >= 2:
        clusters = _stage(
            "clusters",
            lambda: cluster_annotators(petpw_by_annotator(views), args.ks_alpha),
        )
    else:
        clusters = []
        notes.append("clusters: fewer than 2 annotators; clustering skipped")
    _write_tsv(
        out_dir / "clusters.tsv",
        ("cluster", "annotator"),
        (
            {"cluster": idx, "annotator": annotator}
            for idx, cluster in enumerate(clusters)
            for annotator in cluster
        ),
    )

    scatter = _stage("scatter", build_scatter, rows)
    with open(out_dir / "scatter.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("segment_id", "annotator", "metric_name", "metric_value", "petpw"))
        for sid, annotator, metric, value, gold in scatter:
            writer.writerow((sid, annotator, metric, repr(value), repr(gold)))

    report = {
        "stats_tables": stats_table["rows"],
        "ranking_table": {
            annotator: {
                "rows": table["rows"],
                "williams_pairs": table["williams_pairs"],
            }
            for annotator, table in ranking_table.items()
        },
        "loo_table": loo_table["rows"],
        "tails": tails,
        "clusters": clusters,
        "scatter_csv": "scatter.csv",
        "notes": notes,
    }
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pe-rank",
        description="Evaluate how well MT quality metrics rank segments by post-editing effort.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score every (segment, annotator) pair")
    p.add_argument("--segments", required=True, help="segments.tsv path")
    p.add_argument("--sessions", required=True, help="sessions.tsv path")
    p.add_argument("--out", required=True, help="output scores.tsv path")
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("rank-eval", help="Spearman/SATRA table for one annotator view")
    p.add_argument("--scores", required=True, help="scores.tsv path")
    p.add_argument("--annotator", required=True, help="annotator id or ALL")
    p.add_argument("--out", required=True, help="output TSV path")
    p.add_argument("--williams-alpha", type=float, default=0.01)
    p.set_defaults(fn=cmd_rank_eval)

    p = sub.add_parser("loo", help="leave-one-out evaluation per annotator")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_loo)

    p = sub.add_parser("tails", help="gold/metric tail overlap per cut")
    p.add_argument("--scores", required=True)
    p.add_argument("--side", required=True, choices=("best", "worst"))
    p.add_argument("--max", type=int, required=True, help="largest cut")
    p.add_argument("--step", type=int, required=True, help="cut spacing")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_tails)

    p = sub.add_parser("report", help="full pipeline into a report directory")
    p.add_argument("--segments", required=True)
    p.add_argument("--sessions", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--williams-alpha", type=float, default=0.01)
    p.add_argument("--ks-alpha", type=float, default=0.05)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except (CorpusError, CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - invariant violations land here
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
