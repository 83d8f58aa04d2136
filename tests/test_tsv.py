"""The one TSV codec behind corpus and scores files: round trip, line endings,
column order, and rejections that name their line."""

from __future__ import annotations

import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pe_rank.cli import main, read_scores, write_scores
from pe_rank.corpus import CorpusError, load_corpus
from pe_rank.taskmetrics import SegmentScores

SEG_HEADER = "id\tsystem_id\tsource\tmt\treference\tda"
SESS_HEADER = "segment_id\tannotator_id\tpe_text\tpe_time_sec\tkeystrokes"

# Characters an escape must carry, and ones that other line splitters break on.
_text = st.text(
    alphabet=st.sampled_from("\t\n\r\\ \x0b\x0c\x1c\x85 tnrA1é"), max_size=8
)
_any_float = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_non_negative = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324]),
    st.floats(min_value=0.0, allow_infinity=False),
)
_scores_row = st.builds(
    SegmentScores,
    segment_id=_text,
    annotator_id=_text,
    mt_tokens=st.integers(1, 10**9),
    pe_time_sec=st.none() | _non_negative,
    petpw=st.none() | _non_negative,
    keys_per_char=st.none() | _non_negative,
    hter=st.none() | _any_float,
    hbleu=st.none() | _any_float,
    hmeteor=st.none() | _any_float,
    ter=_any_float,
    bleu=_any_float,
    meteor=_any_float,
    da=st.none() | _any_float,
)


@given(st.lists(_scores_row, max_size=6, unique_by=lambda r: (r.segment_id, r.annotator_id)))
def test_scores_round_trip_is_exact(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.tsv"
        write_scores(rows, path)
        # repr tells -0.0 from 0.0, which == does not
        assert list(map(repr, read_scores(path))) == list(map(repr, rows))


def _crlf(src: Path, dst: Path) -> Path:
    dst.write_bytes(src.read_bytes().replace(b"\n", b"\r\n"))
    return dst


def _reorder_columns(src: Path, dst: Path) -> Path:
    lines = src.read_text(encoding="utf-8").splitlines()
    reordered = ("\t".join(reversed(line.split("\t"))) + "\n" for line in lines)
    dst.write_text("".join(reordered), encoding="utf-8")
    return dst


def _scores_file(tmp_path: Path, fixture_paths) -> Path:
    path = tmp_path / "scores.tsv"
    argv = ["score", "--segments", str(fixture_paths[0]), "--sessions", str(fixture_paths[1])]
    assert main(argv + ["--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("rewrite", [_crlf, _reorder_columns], ids=["crlf", "reordered"])
def test_corpus_reads_the_same_after_rewrite(tmp_path, fixture_paths, rewrite):
    segments, sessions = fixture_paths
    rewritten = load_corpus(
        rewrite(segments, tmp_path / "segments.tsv"), rewrite(sessions, tmp_path / "sessions.tsv")
    )
    assert rewritten == load_corpus(segments, sessions)


@pytest.mark.parametrize("rewrite", [_crlf, _reorder_columns], ids=["crlf", "reordered"])
def test_scores_read_the_same_after_rewrite(tmp_path, fixture_paths, rewrite):
    path = _scores_file(tmp_path, fixture_paths)
    rows = read_scores(path)
    assert list(map(repr, read_scores(rewrite(path, tmp_path / "rewritten.tsv")))) == list(map(repr, rows))


@pytest.mark.parametrize(
    "header, message",
    [
        (SESS_HEADER + "\tpe_text", "sessions: duplicate column 'pe_text'"),
        (SESS_HEADER + "\tnotes", "sessions: unexpected column 'notes'"),
        (SESS_HEADER.replace("\tkeystrokes", ""), "sessions: missing required column 'keystrokes'"),
    ],
)
def test_header_rules(header, message):
    with pytest.raises(CorpusError, match=message):
        load_corpus(io.StringIO(SEG_HEADER + "\ns1\tsys\tsrc\tmt\tref\t\n"), io.StringIO(header + "\n"))


@pytest.mark.parametrize(
    "seg_rows, sess_rows, message",
    [
        (["s1\tsys\tsrc\tmt\tref\t", "", "s1\tsys\tsrc\tmt\tref\t"], [],
         "segments: line 4: duplicate segment id 's1'"),
        (["s1\tsys\tsrc\t  \tref\t"], [], "segments: line 2: segment 's1': empty mt text"),
        (["s1\tsys\tsrc\tmt\t \t"], [], "segments: line 2: segment 's1': empty reference text"),
        (["s1\tsys\tsrc\tmt\tref\t"], ["s1\tA\tpe\t1.0\t3", "s1\tA\tpe again\t2.0\t4"],
         "sessions: line 3: duplicate session for segment 's1', annotator 'A'"),
        (["s1\tsys\tsrc\tmt\tref\tnan"], [], "segments: line 2: non-finite da 'nan'"),
        (["s1\tsys\tsrc\tmt\tref\t"], ["s1\tA\tpe\t-1.0\t3"],
         "sessions: line 2: pe_time_sec '-1.0' below minimum 0.0"),
    ],
)
def test_row_rejections_name_the_line(seg_rows, sess_rows, message):
    with pytest.raises(CorpusError, match=message):
        load_corpus(
            io.StringIO("\n".join([SEG_HEADER] + seg_rows) + "\n"),
            io.StringIO("\n".join([SESS_HEADER] + sess_rows) + "\n"),
        )
