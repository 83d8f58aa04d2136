from __future__ import annotations

import io
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from pe_rank.corpus import (
    Corpus,
    CorpusError,
    PESession,
    Segment,
    format_tsv,
    load_corpus,
    mt_char_count,
    tokenize,
    validate_corpus,
)

SEG_HEADER = "id\tsystem_id\tsource\tmt\treference\tda"
SESS_HEADER = "segment_id\tannotator_id\tpe_text\tpe_time_sec\tkeystrokes"


def _load(seg_lines: list[str], sess_lines: list[str]) -> Corpus:
    return load_corpus(
        io.StringIO("\n".join(seg_lines) + "\n"),
        io.StringIO("\n".join(sess_lines) + "\n"),
    )


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_detaches_outer_punctuation():
    assert tokenize("Hello, world!") == ["hello", ",", "world", "!"]


def test_tokenize_empty_text():
    assert tokenize("") == []
    assert tokenize("   \t\n ") == []


def test_tokenize_keeps_interior_punctuation():
    assert tokenize("it's 6 hours.") == ["it's", "6", "hours", "."]


def test_tokenize_punctuation_runs():
    assert tokenize('"(quote)"') == ['"', "(", "quote", ")", '"']
    assert tokenize("...") == [".", ".", "."]


@given(st.text(max_size=80))
def test_tokenize_idempotent_on_joined_output(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


@given(st.text(max_size=80))
def test_tokenize_token_shape(text):
    for token in tokenize(text):
        assert token
        assert token == token.lower()
        assert not any(ch.isspace() for ch in token)


def test_mt_char_count_trims_outer_whitespace():
    assert mt_char_count("  héllo world \n") == len("héllo world")


# ---------------------------------------------------------------------------
# load_corpus


def test_load_minimal_corpus():
    corpus = _load(
        [SEG_HEADER, "s1\tsys\tsrc\tmt text\tref text\t0.5", "s2\tsys\tsrc\tmore mt\tmore ref\t"],
        [SESS_HEADER],
    )
    assert len(corpus.segments) == 2
    assert corpus.sessions == ()
    assert corpus.annotators == frozenset()
    assert corpus.segments[0].da == 0.5
    assert corpus.segments[1].da is None
    assert [s.id for s in corpus.segments] == ["s1", "s2"]


def test_duplicate_segment_id_names_id():
    with pytest.raises(CorpusError, match="'s1'"):
        _load(
            [SEG_HEADER, "s1\tsys\tsrc\tmt\tref\t", "s1\tsys\tsrc\tmt\tref\t"],
            [SESS_HEADER],
        )


def test_missing_column_names_column():
    with pytest.raises(CorpusError, match="'reference'"):
        _load(["id\tsystem_id\tsource\tmt\tda", "s1\tsys\tsrc\tmt\t"], [SESS_HEADER])


def test_non_numeric_time_names_line():
    with pytest.raises(CorpusError, match="line 2"):
        _load(
            [SEG_HEADER, "s1\tsys\tsrc\tmt\tref\t"],
            [SESS_HEADER, "s1\tA\tpe text\tabc\t3"],
        )


def test_session_for_unknown_segment():
    with pytest.raises(CorpusError, match="unknown segment id 's9'"):
        _load(
            [SEG_HEADER, "s1\tsys\tsrc\tmt\tref\t"],
            [SESS_HEADER, "s9\tA\tpe text\t1.0\t3"],
        )


def test_duplicate_session_pair_rejected():
    with pytest.raises(CorpusError, match="duplicate session"):
        _load(
            [SEG_HEADER, "s1\tsys\tsrc\tmt\tref\t"],
            [SESS_HEADER, "s1\tA\tpe\t1.0\t3", "s1\tA\tpe again\t2.0\t4"],
        )


def test_empty_mt_rejected():
    with pytest.raises(CorpusError, match="empty mt"):
        _load([SEG_HEADER, "s1\tsys\tsrc\t  \tref\t"], [SESS_HEADER])


def test_negative_keystrokes_rejected():
    with pytest.raises(CorpusError, match="line 2: keystrokes '-3' below minimum 0"):
        _load(
            [SEG_HEADER, "s1\tsys\tsrc\tmt\tref\t"],
            [SESS_HEADER, "s1\tA\tpe\t1.0\t-3"],
        )


def test_reserved_all_annotator_rejected():
    with pytest.raises(CorpusError, match="reserved"):
        _load(
            [SEG_HEADER, "s1\tsys\tsrc\tmt\tref\t"],
            [SESS_HEADER, "s1\tALL\tpe\t1.0\t3"],
        )


def test_da_column_optional():
    corpus = load_corpus(
        io.StringIO("id\tsystem_id\tsource\tmt\treference\ns1\tsys\tsrc\tmt\tref\n"),
        io.StringIO(SESS_HEADER + "\n"),
    )
    assert corpus.segments[0].da is None


def test_loaded_mt_always_tokenizes():
    corpus = _load(
        [SEG_HEADER, "s1\tsys\tsrc\t...\tref\t"],
        [SESS_HEADER],
    )
    assert len(tokenize(corpus.segments[0].mt)) >= 1


# ---------------------------------------------------------------------------
# serialize round trip

_field = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=0, max_size=30
)
_nonblank = _field.filter(lambda s: bool(s.strip()))
_ids = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=8,
)


@st.composite
def corpora(draw) -> Corpus:
    n_segments = draw(st.integers(1, 4))
    ids = draw(
        st.lists(_ids, min_size=n_segments, max_size=n_segments, unique=True)
    )
    segments = tuple(
        Segment(
            id=sid,
            system_id=draw(_field),
            source=draw(_field),
            mt=draw(_nonblank),
            reference=draw(_nonblank),
            da=draw(st.one_of(st.none(), st.floats(-3, 3, allow_nan=False))),
        )
        for sid in ids
    )
    annotators = draw(st.lists(_ids, min_size=0, max_size=3, unique=True))
    sessions = []
    for seg in segments:
        for annotator in annotators:
            if draw(st.booleans()):
                sessions.append(
                    PESession(
                        segment_id=seg.id,
                        annotator_id=annotator,
                        pe_text=draw(_nonblank),
                        pe_time_sec=draw(st.floats(0, 1000, allow_nan=False)),
                        keystrokes=draw(st.integers(0, 500)),
                    )
                )
    return Corpus(
        segments=segments,
        sessions=tuple(sessions),
        annotators=frozenset(s.annotator_id for s in sessions),
    )


def _tsv(cls: type, rows) -> str:
    return format_tsv([f.name for f in fields(cls)], map(vars, rows))


@given(corpora())
def test_serialize_load_round_trip(corpus):
    reloaded = load_corpus(
        io.StringIO(_tsv(Segment, corpus.segments)),
        io.StringIO(_tsv(PESession, corpus.sessions)),
    )
    assert reloaded == corpus


def test_round_trip_with_embedded_tabs_and_newlines():
    corpus = Corpus(
        segments=(
            Segment(
                id="s1",
                system_id="sys\t1",
                source="a\nb",
                mt="mt \t text",
                reference="ref\r\nline",
                da=-0.25,
            ),
        ),
        sessions=(
            PESession(
                segment_id="s1",
                annotator_id="A",
                pe_text="pe\ttabbed\nline",
                pe_time_sec=1.5,
                keystrokes=9,
            ),
        ),
        annotators=frozenset({"A"}),
    )
    text = _tsv(Segment, corpus.segments)
    assert "\t".join(text.split("\n")[1].split("\t")[:1]) == "s1"
    reloaded = load_corpus(io.StringIO(text), io.StringIO(_tsv(PESession, corpus.sessions)))
    assert reloaded == corpus


# ---------------------------------------------------------------------------
# validate_corpus


def _session(sid, annotator, time=1.0):
    return PESession(sid, annotator, "pe text", time, 3)


def _corpus(segments, sessions):
    return Corpus(
        segments=tuple(segments),
        sessions=tuple(sessions),
        annotators=frozenset(s.annotator_id for s in sessions),
    )


def test_validate_reports_missing_pair():
    corpus = _corpus(
        [Segment("s1", "sys", "src", "mt", "ref", 0.1)],
        [_session("s1", "A")],
    )
    # annotator B exists elsewhere in the roster only if it has some session;
    # build a two-segment corpus so B is in the roster but misses s1
    corpus = _corpus(
        [Segment("s1", "sys", "src", "mt", "ref", 0.1), Segment("s2", "sys", "src", "mt", "ref", 0.1)],
        [_session("s1", "A"), _session("s2", "A"), _session("s2", "B")],
    )
    warnings = validate_corpus(corpus)
    missing = [w for w in warnings if w.kind == "missing-session"]
    assert len(missing) == 1
    assert "'B'" in missing[0].message and "'s1'" in missing[0].message


def test_validate_complete_corpus_is_empty():
    corpus = _corpus(
        [Segment("s1", "sys", "src", "mt", "ref", 0.1)],
        [_session("s1", "A"), _session("s1", "B")],
    )
    assert validate_corpus(corpus) == []


def test_validate_zero_time_and_missing_da():
    corpus = _corpus(
        [Segment("s1", "sys", "src", "mt", "ref", None)],
        [_session("s1", "A", time=0.0)],
    )
    kinds = {w.kind for w in validate_corpus(corpus)}
    assert kinds == {"zero-time", "missing-da"}
