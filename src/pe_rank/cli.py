"""Command line: parse arguments, read and write files, map errors to exit codes.

Commands (scoring lives in `taskmetrics`, every table in `analysis`)
  score      per-(segment, annotator) metric table plus an ALL row per segment
  rank-eval  Spearman/SATRA table for one annotator view, with Williams flags
  loo        leave-one-out table: each annotator against the others' mean PETpW
  tails      overlap between the gold tail and each metric's tail, per cut
  report     everything above plus weighted stats, clusters, and scatter data

All outputs are plain TSV/CSV/JSON, byte-identical across reruns on the same
inputs, and written all or none: a run that exits 1 or 2 leaves them as they
were. Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Sequence

from .analysis import (
    ScoreViews,
    build_loo_table,
    build_rank_table,
    build_report,
    build_scatter,
    build_tails,
    check_loo,
    stage,
)
from .corpus import Corpus, CorpusError, format_tsv, load_corpus, read_tsv, validate_corpus
from .taskmetrics import SCORES_HEADER, SegmentScores, score_corpus
from .textmetrics import ter  # noqa: F401 - perfbench/test_generate.py traces this binding

# Gaps that stop `score` and `report`, and how many of them the error names.
_GAP_KINDS = ("missing-session", "zero-time")
_GAPS_SHOWN = 3


# ---------------------------------------------------------------------------
# scores file


def write_scores(rows: Sequence[SegmentScores], path: str | Path) -> None:
    _write_all({Path(path): format_tsv(SCORES_HEADER, map(vars, rows))})


def _write_all(files: dict[Path, str], make_dir: bool = False) -> None:
    """Write each text to its path, or none: all are written into a temporary directory
    inside the paths' one directory, then renamed onto them. `make_dir` creates that directory."""
    if clash := [p for p in files if p.exists() and not p.is_file()]:  # a directory or a device
        raise CorpusError(f"{clash[0]}: not a regular file")
    directory = next(iter(files)).parent
    made = [d for d in (directory, *directory.parents) if not d.exists()] if make_dir else []
    try:
        if made:
            directory.mkdir(parents=True)
        tmp = tempfile.mkdtemp(dir=directory, prefix=".pe-rank-")  # no rename crosses mounts
        try:
            for path, text in files.items():
                Path(tmp, path.name).write_text(text, encoding="utf-8")
            for path in files:
                Path(tmp, path.name).replace(path)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except BaseException:
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        raise


def read_scores(path: str | Path) -> list[SegmentScores]:
    """Every row of a scores file, checked as by `ScoreViews.read`."""
    ScoreViews.read(path)
    return [row for _, row in read_tsv(path, SegmentScores, "scores")]


# ---------------------------------------------------------------------------
# commands


def _check_sessions(corpus: Corpus) -> None:
    """Raise CorpusError naming the missing and zero-time sessions, if any: every
    per-annotator table needs every session, an ALL row would average over
    fewer, and SATRA fails on a zero-time session only when a ranking puts it
    in a zero-time suffix, so whether the run passed would depend on how the
    metrics happened to order the segments."""
    gaps = [w.message for w in validate_corpus(corpus) if w.kind in _GAP_KINDS]
    if gaps:
        more = f" (and {len(gaps) - _GAPS_SHOWN} more)" if len(gaps) > _GAPS_SHOWN else ""
        raise CorpusError(f"validate: {'; '.join(gaps[:_GAPS_SHOWN])}{more}")


def cmd_score(args: argparse.Namespace) -> None:
    corpus = load_corpus(args.segments, args.sessions)
    _check_sessions(corpus)
    rows = score_corpus(corpus)
    write_scores(rows, args.out)


_RANK_HEADER = ("metric", "rho", "satra", "best", "p_vs_best", "sig_vs_best")
_PAIR_HEADER = ("metric_a", "metric_b", "t", "p", "significant")
_LOO_HEADER = ("annotator", "metric", "rho", "satra")
_TAILS_HEADER = ("cut", "metric", "overlap")
_STATS_HEADER = ("annotator", "metric", "mean", "std")


def cmd_rank_eval(args: argparse.Namespace) -> None:
    views = ScoreViews.read(args.scores)
    table = build_rank_table(views, args.annotator, williams_alpha=args.williams_alpha)
    out = Path(args.out)
    williams = out.with_name(out.name + ".williams.tsv")
    pairs = format_tsv(_PAIR_HEADER, table["williams_pairs"])
    _write_all({out: format_tsv(_RANK_HEADER, table["rows"]), williams: pairs})


def cmd_loo(args: argparse.Namespace) -> None:
    table = build_loo_table(ScoreViews.read(args.scores))
    _write_all({Path(args.out): format_tsv(_LOO_HEADER, table["rows"])})


def cmd_tails(args: argparse.Namespace) -> None:
    table = build_tails(ScoreViews.read(args.scores), args.side, args.max, args.step)
    _write_all({Path(args.out): format_tsv(_TAILS_HEADER, table["rows"])})


def cmd_report(args: argparse.Namespace) -> None:
    corpus = stage("load", load_corpus, args.segments, args.sessions)
    _check_sessions(corpus)
    if corpus.annotators:  # with none, rank-eval names the missing gold first
        stage("loo", check_loo, corpus.annotators)
    rows = stage("score", score_corpus, corpus)
    # the tables read the very text written as scores.tsv
    scores = format_tsv(SCORES_HEADER, map(vars, rows))
    report = build_report(ScoreViews.read([scores]), args.williams_alpha, args.ks_alpha)
    scatter = io.StringIO()
    writer = csv.writer(scatter, lineterminator="\n")
    writer.writerow(("segment_id", "annotator", "metric_name", "metric_value", "petpw"))
    writer.writerows((*k, repr(v), repr(g)) for *k, v, g in stage("scatter", build_scatter, rows))
    report["scatter_csv"] = "scatter.csv"
    tagged = {k: [{"annotator": a, **r} for a, t in report["ranking_table"].items() for r in t[k]]
              for k in ("rows", "williams_pairs")}
    clusters = [dict(cluster=i, annotator=a) for i, c in enumerate(report["clusters"]) for a in c]
    files = {
        "scores.tsv": scores,
        "stats.tsv": format_tsv(_STATS_HEADER, report["stats_tables"]),
        "ranking.tsv": format_tsv(("annotator",) + _RANK_HEADER, tagged["rows"]),
        "williams.tsv": format_tsv(("annotator",) + _PAIR_HEADER, tagged["williams_pairs"]),
        "loo.tsv": format_tsv(_LOO_HEADER, report["loo_table"]),
        **{f"tails_{s}.tsv": format_tsv(_TAILS_HEADER, t) for s, t in report["tails"].items()},
        "clusters.tsv": format_tsv(("cluster", "annotator"), clusters),
        "scatter.csv": scatter.getvalue(),
        "report.json": json.dumps(report, indent=2, sort_keys=True) + "\n",
    }
    _write_all({Path(args.out_dir, name): text for name, text in files.items()}, make_dir=True)


def alpha(text: str) -> float:
    """A significance level: a number strictly between 0 and 1 (argparse type)."""
    value = float(text)  # argparse reports a ValueError as "invalid alpha value"
    if not 0 < value < 1:  # also true for NaN
        raise argparse.ArgumentTypeError(f"{text!r} is not a number strictly between 0 and 1")
    return value


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
    p.add_argument("--williams-alpha", type=alpha, default=0.01)
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
    p.add_argument("--williams-alpha", type=alpha, default=0.01)
    p.add_argument("--ks-alpha", type=alpha, default=0.05)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error (already printed)
        return 1 if exc.code else 0  # 0 after --help
    try:
        args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - invariant violations land here
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
