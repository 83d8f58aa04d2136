"""The benchmark's workloads: how each makes its inputs, runs, and is checked.

A workload is a list of operations run on one of its input sets. An
operation is one `pe-rank` command line plus the files it writes; it fails
when the command exits nonzero or one of its output checks fails.

A run makes `input_sets` input sets from its seed and pass i runs on set
i mod input_sets. Where a few costly inputs decide a pass's time (the long
sentences of report-paper), several smaller sets per run make the median
pass time depend less on what one seed happened to draw.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import generate as gen

N_METRICS = 9  # TER BLEU METEOR DA HTER HBLEU HMETEOR KEYS_PER_CHAR PETPW
N_PAIRS = (N_METRICS - 1) * (N_METRICS - 2) // 2  # Williams pairs, PETPW excluded
N_LOO_METRICS = 6

# Files `report` writes whose bytes are checked. Files added to the report
# directory later (such as a run manifest with timings) are not.
REPORT_FILES = (
    "scores.tsv", "stats.tsv", "ranking.tsv", "williams.tsv", "loo.tsv",
    "tails_best.tsv", "tails_worst.tsv", "clusters.tsv", "scatter.csv", "report.json",
)


class CheckError(Exception):
    """An output file is missing or does not hold what it must."""


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]  # relative to the work directory
    check: Callable[[Path], None]  # raises CheckError


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    input_sets: int
    prepare: Callable[[str, Path], None]  # (input-set seed, directory) -> writes inputs
    ops: tuple[Op, ...]


# --- output checks --------------------------------------------------------


def _rows(path: Path) -> list[list[str]]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CheckError(f"{path.name}: {exc}") from None
    lines = text.split("\n")
    if lines[-1] != "":
        raise CheckError(f"{path.name}: no final newline")
    return [line.split("\t") for line in lines[1:-1]]


def _finite(path: Path, cells: list[str]) -> None:
    for cell in cells:
        try:
            value = float(cell)
        except ValueError:
            raise CheckError(f"{path.name}: non-numeric value {cell!r}") from None
        if not math.isfinite(value):
            raise CheckError(f"{path.name}: non-finite value {cell!r}")


def _count(path: Path, rows: list, expected: int) -> None:
    if len(rows) != expected:
        raise CheckError(f"{path.name}: {len(rows)} rows, expected {expected}")


def check_scores(path: Path, segments: int, annotators: int) -> None:
    """Row counts, finite values, ALL rows equal to the fsum mean of their segment."""
    rows = _rows(path)
    _count(path, rows, segments * (annotators + 1))
    header = gen.SCORES_HEADER
    by_segment: dict[str, list[dict[str, str]]] = {}
    for fields in rows:
        if len(fields) != len(header):
            raise CheckError(f"{path.name}: wrong field count")
        row = dict(zip(header, fields))
        by_segment.setdefault(row["segment_id"], []).append(row)
        _finite(path, [row[c] for c in header[2:] if row[c] != ""])
    if len(by_segment) != segments:
        raise CheckError(f"{path.name}: {len(by_segment)} segments, expected {segments}")
    for sid, group in by_segment.items():
        people = [r for r in group if r["annotator_id"] != "ALL"]
        everyone = [r for r in group if r["annotator_id"] == "ALL"]
        if len(people) != annotators or len(everyone) != 1:
            raise CheckError(f"{path.name}: segment {sid} has wrong annotator rows")
        if len({r["mt_tokens"] for r in group}) != 1:
            raise CheckError(f"{path.name}: segment {sid} mt_tokens disagree")
        for column in gen.AVERAGED:
            mean = math.fsum(float(r[column]) for r in people) / annotators
            if float(everyone[0][column]) != mean:
                raise CheckError(f"{path.name}: segment {sid} ALL {column} is not the mean")


def check_rank_table(path: Path, views: int) -> None:
    """Every rho and SATRA finite; one row per metric and view."""
    rows = _rows(path)
    _count(path, rows, views * N_METRICS)
    offset = 0 if views == 1 else 1  # report's table leads with the annotator
    _finite(path, [c for r in rows for c in r[offset + 1 : offset + 3]])


def check_williams(path: Path, views: int) -> None:
    _count(path, _rows(path), views * N_PAIRS)


def check_loo(path: Path, annotators: int) -> None:
    rows = _rows(path)
    _count(path, rows, annotators * N_LOO_METRICS)
    _finite(path, [c for r in rows for c in r[2:4]])


def check_tails(path: Path, cuts: int) -> None:
    _count(path, _rows(path), cuts * N_METRICS)


def check_report(out: Path, segments: int, annotators: int, cuts: int) -> None:
    for name in REPORT_FILES:
        if not (out / name).is_file():
            raise CheckError(f"report: {name} missing")
    check_scores(out / "scores.tsv", segments, annotators)
    check_rank_table(out / "ranking.tsv", annotators + 1)
    check_williams(out / "williams.tsv", annotators + 1)
    check_loo(out / "loo.tsv", annotators)
    check_tails(out / "tails_best.tsv", cuts)
    check_tails(out / "tails_worst.tsv", cuts)
    try:
        json.loads((out / "report.json").read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CheckError(f"report.json: {exc}") from None


def digests(work: Path, outputs: tuple[str, ...]) -> dict[str, str]:
    out = {}
    for rel in outputs:
        path = work / rel
        out[rel] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else ""
    return out


# --- workloads ------------------------------------------------------------

# Sizes let a 55-second run hold several passes on the unoptimised code,
# where one TER call on 60 or more tokens costs seconds. report-paper keeps
# the paper's median of 17 tokens with its longest sentence near 50, over
# five corpora per seed so that no single costly sentence sets the median.
PAPER = gen.CorpusSpec(
    segments=45, annotators=3, len_median=17, len_sigma=0.45, len_min=3, len_max=70,
    vocab=2000, zipf_s=1.05, sub_rate=0.12, ins_rate=0.05, del_rate=0.05, move_prob=0.4,
)
SHORT = gen.CorpusSpec(
    segments=400, annotators=5, len_median=7, len_sigma=0.35, len_min=3, len_max=12,
    vocab=60, zipf_s=1.0, sub_rate=0.15, ins_rate=0.05, del_rate=0.05, move_prob=0.3,
    pe_scale=1.0,
)
WIDE = gen.ScoresSpec(segments=5000, annotators=8, len_min=5, len_max=40)
PAPER_SETS = 5
WIDE_TAILS = (500, 50)  # (max cut, step), as `report` picks them for a large corpus


def _corpus_inputs(spec: gen.CorpusSpec) -> Callable[[str, Path], None]:
    def prepare(seed: str, work: Path) -> None:
        gen.write_corpus(spec, seed, work / "segments.tsv", work / "sessions.tsv")
    return prepare


def _report_paper() -> Workload:
    s = PAPER
    max_cut = min(500, s.segments)  # as `report` picks its tail cuts
    step = min(50, max_cut)
    cuts = len(range(step, max_cut + 1, step))
    op = Op(
        name="report",
        argv=("report", "--segments", "segments.tsv", "--sessions", "sessions.tsv",
              "--out-dir", "report"),
        outputs=tuple(f"report/{f}" for f in REPORT_FILES),
        check=lambda w: check_report(w / "report", s.segments, s.annotators, cuts),
    )
    return Workload("report-paper", asdict(s), PAPER_SETS, _corpus_inputs(s), (op,))


def _score_short() -> Workload:
    s = SHORT
    op = Op(
        name="score",
        argv=("score", "--segments", "segments.tsv", "--sessions", "sessions.tsv",
              "--out", "scores.tsv"),
        outputs=("scores.tsv",),
        check=lambda w: check_scores(w / "scores.tsv", s.segments, s.annotators),
    )
    return Workload("score-short", asdict(s), 1, _corpus_inputs(s), (op,))


def _analysis_wide() -> Workload:
    s = WIDE
    max_cut, step = WIDE_TAILS
    cuts = len(range(step, max_cut + 1, step))
    scores = ("--scores", "scores.tsv")
    ops = (
        Op("rank-eval-all", ("rank-eval", *scores, "--annotator", "ALL", "--out", "rank_all.tsv"),
           ("rank_all.tsv", "rank_all.tsv.williams.tsv"),
           lambda w: (check_rank_table(w / "rank_all.tsv", 1),
                      check_williams(w / "rank_all.tsv.williams.tsv", 1))),
        Op("rank-eval-one", ("rank-eval", *scores, "--annotator", "a1", "--out", "rank_a1.tsv"),
           ("rank_a1.tsv", "rank_a1.tsv.williams.tsv"),
           lambda w: (check_rank_table(w / "rank_a1.tsv", 1),
                      check_williams(w / "rank_a1.tsv.williams.tsv", 1))),
        Op("loo", ("loo", *scores, "--out", "loo.tsv"), ("loo.tsv",),
           lambda w: check_loo(w / "loo.tsv", s.annotators)),
        Op("tails-best", ("tails", *scores, "--side", "best", "--max", str(max_cut),
                          "--step", str(step), "--out", "tails_best.tsv"),
           ("tails_best.tsv",), lambda w: check_tails(w / "tails_best.tsv", cuts)),
        Op("tails-worst", ("tails", *scores, "--side", "worst", "--max", str(max_cut),
                           "--step", str(step), "--out", "tails_worst.tsv"),
           ("tails_worst.tsv",), lambda w: check_tails(w / "tails_worst.tsv", cuts)),
    )
    return Workload(
        "analysis-wide", asdict(s), 1,
        lambda seed, work: gen.write_scores(s, seed, work / "scores.tsv"), ops,
    )


WORKLOADS = {w.name: w for w in (_report_paper(), _score_short(), _analysis_wide())}
DEFAULT_SEED = 0
