"""Post-editing-derived measurements and per-segment score fan-out."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

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


# The columns of a scores file, in the order `format_tsv` writes them.
SCORES_HEADER = tuple(f.name for f in fields(SegmentScores))


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
# Annotations are strings here (postponed evaluation).
_AVERAGED_FIELDS = tuple(
    f.name
    for f in fields(SegmentScores)
    if f.type.startswith("float") and f.name != DA_METRIC.field
)


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
    rows = []
    for session in sessions:
        pe_ref = tokenize(session.pe_text)
        rows.append(
            replace(
                reference,
                annotator_id=session.annotator_id,
                pe_time_sec=session.pe_time_sec,
                petpw=petpw(session.pe_time_sec, len(hyp)),
                keys_per_char=keys_per_char(session.keystrokes, mt_char_count(seg.mt)),
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
    ALL row.
    """
    sessions_index = corpus.sessions_by_segment()
    segments = sorted(corpus.segments, key=lambda s: s.id)
    return [row for seg in segments for row in _segment_rows(seg, sessions_index[seg.id])]
