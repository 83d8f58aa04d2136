"""Command line: parse arguments, read and write files, map errors to exit codes.

Commands (scoring lives in `taskmetrics`, every table in `analysis`)
  score      per-(segment, annotator) metric table plus an ALL row per segment
  rank-eval  Spearman/SATRA table for one annotator view, with Williams flags
  loo        leave-one-out table: each annotator against the others' mean PETpW
  tails      overlap between the gold tail and each metric's tail, per cut
  report     everything above plus weighted stats, clusters, and scatter data;
             every table is built before the first file is written

All outputs are plain TSV/CSV/JSON, byte-identical across reruns on the same
inputs. Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Sequence

from .analysis import (
    ScoreViews,
    build_loo_table,
    build_rank_table,
    build_report,
    build_scatter,
    build_tails,
    stage,
)
from .corpus import CorpusError, format_tsv, load_corpus, read_tsv
from .taskmetrics import SegmentScores, score_corpus
from .textmetrics import ter  # noqa: F401 - perfbench/test_generate.py traces this binding

SCORES_HEADER = tuple(f.name for f in fields(SegmentScores))

# The one input-error class, under the name this module's callers know.
CliError = CorpusError


# ---------------------------------------------------------------------------
# scores file


def write_scores(rows: Sequence[SegmentScores], path: str | Path) -> None:
    _write_tsv(Path(path), SCORES_HEADER, (vars(r) for r in rows))


def _write_tsv(path: Path, header: Sequence[str], rows: Iterable[dict]) -> None:
    path.write_text(format_tsv(header, rows), encoding="utf-8")


def read_scores(path: str | Path) -> list[SegmentScores]:
    """Parse a scores file written by `score` (or an equivalent producer).

    Beyond the cell and header checks of `read_tsv`, rejects a second row for
    the same (segment, annotator) pair, naming the line.
    """
    rows: list[SegmentScores] = []
    seen: dict[str, set[str]] = {}  # annotator -> segment ids read so far
    for lineno, row in read_tsv(path, SegmentScores, "scores"):
        segments = seen.setdefault(row.annotator_id, set())
        if row.segment_id in segments:
            raise CliError(
                f"scores: line {lineno}: duplicate row for segment "
                f"'{row.segment_id}', annotator '{row.annotator_id}'"
            )
        segments.add(row.segment_id)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# commands


def cmd_score(args: argparse.Namespace) -> None:
    corpus = load_corpus(args.segments, args.sessions)
    rows = score_corpus(corpus)
    write_scores(rows, args.out)


_RANK_HEADER = ("metric", "rho", "satra", "best", "p_vs_best", "sig_vs_best")
_PAIR_HEADER = ("metric_a", "metric_b", "t", "p", "significant")
_LOO_HEADER = ("annotator", "metric", "rho", "satra")
_TAILS_HEADER = ("cut", "metric", "overlap")
_STATS_HEADER = ("annotator", "metric", "mean", "std")


def cmd_rank_eval(args: argparse.Namespace) -> None:
    view = ScoreViews(read_scores(args.scores)).view(args.annotator)
    table = build_rank_table(view, williams_alpha=args.williams_alpha)
    out = Path(args.out)
    _write_tsv(out, _RANK_HEADER, table["rows"])
    _write_tsv(out.with_name(out.name + ".williams.tsv"), _PAIR_HEADER, table["williams_pairs"])


def cmd_loo(args: argparse.Namespace) -> None:
    table = build_loo_table(read_scores(args.scores))
    _write_tsv(Path(args.out), _LOO_HEADER, table["rows"])


def cmd_tails(args: argparse.Namespace) -> None:
    table = build_tails(read_scores(args.scores), args.side, args.max, args.step)
    _write_tsv(Path(args.out), _TAILS_HEADER, table["rows"])


def cmd_report(args: argparse.Namespace) -> None:
    # the output directory is made only after every table is built, so a run
    # that fails at any stage writes nothing
    corpus = stage("load", load_corpus, args.segments, args.sessions)
    rows = stage("score", score_corpus, corpus)
    report = build_report(rows, args.williams_alpha, args.ks_alpha)
    scatter = stage("scatter", build_scatter, rows)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_scores(rows, out_dir / "scores.tsv")
    _write_tsv(out_dir / "stats.tsv", _STATS_HEADER, report["stats_tables"])
    ranking = report["ranking_table"]
    for name, key, header in (
        ("ranking.tsv", "rows", _RANK_HEADER),
        ("williams.tsv", "williams_pairs", _PAIR_HEADER),
    ):
        _write_tsv(
            out_dir / name,
            ("annotator",) + header,
            ({"annotator": a, **r} for a, table in ranking.items() for r in table[key]),
        )
    _write_tsv(out_dir / "loo.tsv", _LOO_HEADER, report["loo_table"])
    for side, side_rows in report["tails"].items():
        _write_tsv(out_dir / f"tails_{side}.tsv", _TAILS_HEADER, side_rows)
    _write_tsv(
        out_dir / "clusters.tsv",
        ("cluster", "annotator"),
        (
            {"cluster": idx, "annotator": annotator}
            for idx, cluster in enumerate(report["clusters"])
            for annotator in cluster
        ),
    )
    with open(out_dir / "scatter.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("segment_id", "annotator", "metric_name", "metric_value", "petpw"))
        for sid, annotator, metric, value, gold in scatter:
            writer.writerow((sid, annotator, metric, repr(value), repr(gold)))
    report["scatter_csv"] = "scatter.csv"
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


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
