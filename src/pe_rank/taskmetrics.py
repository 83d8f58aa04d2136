"""Post-editing-derived measurements and per-segment score fan-out."""

from __future__ import annotations

import math
import os
import pickle
import warnings
from dataclasses import dataclass, fields, replace
from typing import BinaryIO, NoReturn, Sequence

from .corpus import ALL_ANNOTATORS, Corpus, PESession, Segment, mt_char_count, tokenize
from .rankeval import DA_METRIC
from .textmetrics import bleu, meteor_lite, ter


@dataclass(frozen=True)
class SegmentScores:
    """Every metric value for one (segment, annotator-or-ALL) pair.

    mt_tokens and pe_time_sec ride along so downstream ranking scores can
    rebuild the (time, length) pairs they need from a scores file alone.
    Session-derived fields are None only for reference-only rows (a corpus
    with no post-editing sessions).
    """

    segment_id: str
    annotator_id: str
    mt_tokens: int
    pe_time_sec: float | None
    petpw: float | None
    keys_per_char: float | None
    hter: float | None
    hbleu: float | None
    hmeteor: float | None
    ter: float
    bleu: float
    meteor: float
    da: float | None


# The columns of a scores file, in the order `format_tsv` writes them, and those
# of them that are float columns (annotations are strings here: postponed evaluation).
SCORES_HEADER = tuple(f.name for f in fields(SegmentScores))
FLOAT_FIELDS = tuple(f.name for f in fields(SegmentScores) if f.type.startswith("float"))


def petpw(pe_time_sec: float, mt_token_count: int) -> float:
    """Post-editing seconds per MT word."""
    if mt_token_count == 0:
        raise ValueError("empty segment")
    if mt_token_count < 0:
        raise ValueError("negative token count")
    if pe_time_sec < 0:
        raise ValueError("negative post-editing time")
    return pe_time_sec / mt_token_count


def keys_per_char(keystrokes: int, mt_char_count: int) -> float:
    """Keystrokes pressed per character of the raw MT segment."""
    if mt_char_count == 0:
        raise ValueError("empty segment")
    if mt_char_count < 0:
        raise ValueError("negative character count")
    if keystrokes < 0:
        raise ValueError("negative keystroke count")
    return keystrokes / mt_char_count


# Every float field except DA, which belongs to the segment, not the annotator.
_AVERAGED_FIELDS = tuple(f for f in FLOAT_FIELDS if f != DA_METRIC.field)


def all_view(scores: Sequence[SegmentScores]) -> SegmentScores:
    """Annotator-averaged scores for one segment (unweighted mean per field)."""
    if not scores:
        raise ValueError("all_view requires at least one annotator")
    segment_id = scores[0].segment_id
    for s in scores:
        if s.segment_id != segment_id:
            raise ValueError("all_view inputs span multiple segments")
        if s.mt_tokens != scores[0].mt_tokens:
            raise ValueError("inconsistent mt_tokens across annotators")
    means: dict[str, float] = {}
    for field in _AVERAGED_FIELDS:
        values = [getattr(s, field) for s in scores]
        if any(v is None for v in values):
            raise ValueError(f"cannot average missing {field}")
        # fsum is exactly rounded, so the mean is annotator-order independent
        means[field] = math.fsum(values) / len(values)
    return replace(
        scores[0],
        annotator_id=ALL_ANNOTATORS,
        **means,
    )


def _segment_rows(seg: Segment, sessions: Sequence[PESession]) -> list[SegmentScores]:
    """One row per session of a segment, in order, then the segment's ALL row.

    TER/BLEU/METEOR against the independent reference are scored once for all
    sessions. The ALL row is the `all_view` of the session rows, so even a
    value they share is an `fsum` mean, which can differ from it in the last
    bit; a segment without sessions gets the reference-only row.
    """
    for session in sessions:
        if session.segment_id != seg.id:
            raise ValueError(
                f"session segment '{session.segment_id}' does not match segment '{seg.id}'"
            )
    hyp = tokenize(seg.mt)
    ind_ref = tokenize(seg.reference)
    reference = SegmentScores(
        segment_id=seg.id,
        annotator_id=ALL_ANNOTATORS,
        mt_tokens=len(hyp),
        pe_time_sec=None,
        petpw=None,
        keys_per_char=None,
        hter=None,
        hbleu=None,
        hmeteor=None,
        ter=ter(hyp, ind_ref).score,
        bleu=bleu(hyp, ind_ref),
        meteor=meteor_lite(hyp, ind_ref).score,
        da=seg.da,
    )
    chars = mt_char_count(seg.mt)
    rows = []
    for session in sessions:
        pe_ref = tokenize(session.pe_text)
        rows.append(
            replace(
                reference,
                annotator_id=session.annotator_id,
                pe_time_sec=session.pe_time_sec,
                petpw=petpw(session.pe_time_sec, len(hyp)),
                keys_per_char=keys_per_char(session.keystrokes, chars),
                hter=ter(hyp, pe_ref).score,
                hbleu=bleu(hyp, pe_ref),
                hmeteor=meteor_lite(hyp, pe_ref).score,
            )
        )
    rows.append(all_view(rows) if rows else reference)
    return rows


def score_segment(seg: Segment, session: PESession) -> SegmentScores:
    """All metrics for one post-editing session.

    Human-targeted metrics use the PE'ed text as the reference; plain
    TER/BLEU/METEOR use the independent reference.
    """
    return _segment_rows(seg, [session])[0]


def score_corpus(corpus: Corpus) -> list[SegmentScores]:
    """Score every (segment, annotator) pair plus an ALL row per segment.

    Rows come back sorted by segment id, then annotator id, with the ALL row
    last within each segment. Segments without sessions get a reference-only
    ALL row. The segments are scored in `_part_count` parts, one per process;
    the rows and any error are those of scoring them one by one in id order.
    """
    sessions_index = corpus.sessions_by_segment()
    jobs = [(seg, sessions_index[seg.id]) for seg in sorted(corpus.segments, key=lambda s: s.id)]
    split = _split(jobs, _part_count(len(jobs)))
    results = _score_parts(jobs, split)
    failure = min((failure for _, failure in results if failure is not None), default=None)
    if failure is not None:  # segment indices are distinct, so min compares only them
        raise failure[1]
    by_segment: list = [None] * len(jobs)
    for indices, (done, _) in zip(split, results):
        for i, rows in zip(indices, done):
            by_segment[i] = rows
    return [row for rows in by_segment for row in rows]


# The fewest segments per part. On a shared 2-vCPU host (Python 3.11) a fork,
# exit and wait cost 2.7 ms, and a report-paper segment with 3 sessions took
# about 5 ms to score (one in ten under 1.4 ms), so the work of four segments
# pays for a fork even when the segments are cheap.
_MIN_PART = 4


def _part_count(segments: int) -> int:
    """One part per usable CPU, while there are _MIN_PART segments per part;
    one without `os.fork`."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, segments // _MIN_PART))


def _split(jobs: Sequence, parts: int) -> list[list[int]]:
    """The job indices of each part, ascending, with the parts' work balanced.

    A segment's work is estimated as the length of its MT times the total
    length of its references, since TER's edit distances grow with the
    product of the two lengths. Segments go out by most work first, each to
    the part with the least work so far (longest processing time first).
    Scoring costs are heavy-tailed, so parts of every P-th segment are not
    balanced: on the five seed-0 report-paper corpora, the larger of two such
    parts took 1.17 times half the scoring time on average (up to 1.33),
    against 1.07 (up to 1.15) for the parts this split makes.
    """
    work = [len(seg.mt) * (len(seg.reference) + sum(len(s.pe_text) for s in sessions))
            for seg, sessions in jobs]
    loads = [0] * parts
    split: list[list[int]] = [[] for _ in range(parts)]
    for i in sorted(range(len(jobs)), key=work.__getitem__, reverse=True):
        k = loads.index(min(loads))
        loads[k] += work[i]
        split[k].append(i)
    return [sorted(part) for part in split]


def _score_part(jobs: Sequence, indices: list[int]) -> tuple[list, tuple[int, Exception] | None]:
    """Score the jobs at `indices` in order until one fails: the rows of each
    segment scored, and the (index, error) of the one that failed, or None."""
    done = []
    for i in indices:
        try:
            done.append(_segment_rows(*jobs[i]))
        except Exception as exc:  # noqa: BLE001 - score_corpus raises the earliest one
            return done, (i, exc)
    return done, None


def _score_parts(jobs: Sequence, split: list[list[int]]) -> list[tuple]:
    """`_score_part` of each part of `split`: the first here, every other one in
    a forked child. Every child is reaped before this returns or raises."""
    children: dict[int, BinaryIO] = {}  # pid -> the read end of its pipe
    try:
        for indices in split[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = _fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _child(read_fd, write_fd, jobs, indices)
            children[pid] = open(read_fd, "rb")
            os.close(write_fd)
        results = [_score_part(jobs, split[0])]
        for pid, pipe in list(children.items()):
            with pipe:  # read before waiting: a child blocks on a full pipe until then
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0:
                raise RuntimeError(
                    f"a scoring process ended with status {status} before sending its rows"
                )
            results.append(pickle.loads(data))  # written by our own child
        return results
    finally:
        if children:  # interrupted, or a child failed: end the others
            import signal  # only here, so that importing the package loads nothing more

            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork() -> int:
    with warnings.catch_warnings():
        # Python 3.12+ warns when a process with other threads forks, because a
        # lock one of them holds stays held in the child. numpy's OpenBLAS starts
        # threads at import. The child calls no numpy or BLAS routine and leaves
        # by os._exit, so it waits on none of their locks.
        warnings.filterwarnings(
            "ignore", r"This process .*is multi-threaded, use of fork\(\)", DeprecationWarning
        )
        return os.fork()


def _child(read_fd: int, write_fd: int, jobs: Sequence, indices: list[int]) -> NoReturn:
    """Score one part and send it to the parent as one pickle, then leave by
    os._exit: a child never returns into its caller's code (a `finally`, say)
    and never flushes a buffer it inherited, so nothing is written twice."""
    status = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            pickle.dump(_score_part(jobs, indices), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)
