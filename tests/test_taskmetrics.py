from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from pe_rank.corpus import Corpus, PESession, Segment
from pe_rank.taskmetrics import (
    SegmentScores,
    all_view,
    keys_per_char,
    petpw,
    score_corpus,
    score_segment,
)

from oracles import score_corpus_per_session


def test_petpw_basic():
    assert petpw(10.0, 5) == 2.0
    assert petpw(0.0, 7) == 0.0


def test_petpw_empty_segment():
    with pytest.raises(ValueError, match="empty segment"):
        petpw(3.0, 0)


@given(st.floats(0, 1e5), st.integers(1, 200), st.floats(0, 50))
def test_petpw_scales_linearly(t, n, k):
    assert petpw(k * t, n) == pytest.approx(k * petpw(t, n))


def test_keys_per_char_basic():
    assert keys_per_char(30, 60) == 0.5
    assert keys_per_char(0, 10) == 0.0


def test_keys_per_char_empty_segment():
    with pytest.raises(ValueError, match="empty segment"):
        keys_per_char(10, 0)


def _segment(mt="the cat sat", reference="the cat sat", da=0.3, sid="s1"):
    return Segment(id=sid, system_id="sys", source="src", mt=mt, reference=reference, da=da)


def _session(seg, pe_text, time=4.0, keys=6, annotator="A"):
    return PESession(seg.id, annotator, pe_text, time, keys)


def test_score_segment_identity_post_edit():
    seg = _segment()
    scores = score_segment(seg, _session(seg, seg.mt))
    assert scores.hter == 0.0
    assert scores.hbleu == pytest.approx(1.0)
    assert scores.ter == 0.0  # reference equals mt here too
    assert scores.mt_tokens == 3
    assert scores.da == 0.3


def test_score_segment_composed_shift_example():
    seg = _segment(mt="a c b d", reference="a b c d")
    scores = score_segment(seg, _session(seg, "a b c d", time=4.0))
    assert scores.hter == pytest.approx(0.25)
    assert scores.petpw == pytest.approx(1.0)


def test_score_segment_mismatched_session():
    seg = _segment()
    with pytest.raises(ValueError, match="does not match"):
        score_segment(seg, PESession("other", "A", "text", 1.0, 2))


def test_score_segment_keys_per_char_uses_raw_characters():
    seg = _segment(mt="  ab cd  ")
    scores = score_segment(seg, _session(seg, "ab cd", keys=10))
    assert scores.keys_per_char == pytest.approx(10 / len("ab cd"))


def _scores(sid="s1", annotator="A", **overrides) -> SegmentScores:
    base = dict(
        segment_id=sid,
        annotator_id=annotator,
        mt_tokens=5,
        pe_time_sec=10.0,
        petpw=2.0,
        keys_per_char=0.5,
        hter=0.2,
        hbleu=0.8,
        hmeteor=0.9,
        ter=0.4,
        bleu=0.3,
        meteor=0.5,
        da=0.1,
    )
    base.update(overrides)
    return SegmentScores(**base)


def test_all_view_single_annotator():
    row = _scores()
    merged = all_view([row])
    assert merged.annotator_id == "ALL"
    assert merged.petpw == row.petpw
    assert merged.da == row.da


def test_all_view_averages_fields():
    merged = all_view(
        [
            _scores(annotator="A", petpw=2.0, hter=0.2),
            _scores(annotator="B", petpw=4.0, hter=0.4),
        ]
    )
    assert merged.petpw == pytest.approx(3.0)
    assert merged.hter == pytest.approx(0.3)


def test_all_view_empty_errors():
    with pytest.raises(ValueError):
        all_view([])


def test_all_view_mixed_segments_errors():
    with pytest.raises(ValueError):
        all_view([_scores(sid="s1"), _scores(sid="s2")])


@given(st.permutations(range(4)))
def test_all_view_order_invariant(perm):
    rows = [
        _scores(annotator=f"A{i}", petpw=float(i + 1), hter=0.1 * i, bleu=0.2 + 0.1 * i)
        for i in range(4)
    ]
    shuffled = [rows[i] for i in perm]
    assert all_view(shuffled) == all_view(rows)


_WORDS = st.sampled_from(["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "."])
_TEXT = st.lists(_WORDS, min_size=1, max_size=8).map(" ".join)


@st.composite
def _corpora(draw) -> Corpus:
    """1-4 segments, 1-3 annotators, each segment post-edited by any subset of them."""
    annotators = [f"A{i}" for i in range(draw(st.integers(1, 3)))]
    segments = []
    sessions = []
    for i in range(draw(st.integers(1, 4))):
        da = draw(st.none() | st.floats(-2, 2))
        seg = Segment(f"s{i}", "sys", "src", draw(_TEXT), draw(_TEXT), da)
        segments.append(seg)
        for annotator in draw(st.lists(st.sampled_from(annotators), unique=True)):
            time = draw(st.floats(0.5, 60))
            sessions.append(PESession(seg.id, annotator, draw(_TEXT), time, draw(st.integers(0, 40))))
    return Corpus(tuple(segments), tuple(sessions), frozenset(annotators))


# TER 1/5 against the reference, shared by three sessions: fsum([0.2] * 3) / 3
# is not 0.2, so an ALL row that copied the shared value would differ.
_SHARED_TER = Corpus(
    (Segment("s0", "sys", "src", "the cat sat on mat", "the cat sat on the"),),
    tuple(PESession("s0", a, "the cat sat", 3.0, 4) for a in ("A0", "A1", "A2")),
    frozenset({"A0", "A1", "A2"}),
)


@settings(max_examples=60)
@given(_corpora())
@example(_SHARED_TER)
def test_score_corpus_matches_per_session_oracle(corpus):
    assert score_corpus(corpus) == score_corpus_per_session(corpus)
