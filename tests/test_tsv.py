"""The one TSV codec behind corpus and scores files: round trip, line endings,
column order, and rejections that name their line."""

from __future__ import annotations

import io
import os
import tempfile
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pe_rank import corpus
from pe_rank.analysis import FLOAT_FIELDS, ScoreViews
from pe_rank.cli import main, read_scores, write_scores
from pe_rank.corpus import (
    ALL_ANNOTATORS, CorpusError, PESession, Segment, escape_field, load_corpus, read_tsv,
    read_tsv_columns,
)
from pe_rank.taskmetrics import SegmentScores

from oracles import replace_chain_escape, row_read_tsv

SEEDED_SCORES = Path(__file__).parent / "golden" / "seeded" / "expected" / "scores.tsv"
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


def _one_length_per_segment(rows: list[SegmentScores]) -> list[SegmentScores]:
    """The rows, each with the mt_tokens of its segment's first row, as a scores file has."""
    first: dict[str, int] = {}
    return [replace(r, mt_tokens=first.setdefault(r.segment_id, r.mt_tokens)) for r in rows]


@given(st.lists(st.sampled_from(["\\", "\t", "\n", "\r", "a", "b", "\\t"])).map("".join))
def test_escape_field_matches_the_replace_chain(text):
    assert escape_field(text) == replace_chain_escape(text)


@given(
    st.lists(_scores_row, max_size=6, unique_by=lambda r: (r.segment_id, r.annotator_id)).map(
        _one_length_per_segment
    )
)
def test_scores_round_trip_is_exact(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.tsv"
        write_scores(rows, path)
        # repr tells -0.0 from 0.0, which == does not
        assert list(map(repr, read_scores(path))) == list(map(repr, rows))


def test_numpy_floats_round_trip_bit_for_bit(tmp_path):
    rows = read_scores(SEEDED_SCORES)
    numpy_rows = [
        replace(r, **{f: np.float64(v) for f in FLOAT_FIELDS if (v := getattr(r, f)) is not None})
        for r in rows
    ]
    path = tmp_path / "scores.tsv"
    write_scores(numpy_rows, path)
    assert list(map(repr, read_scores(path))) == list(map(repr, rows))
    views, expected = ScoreViews(numpy_rows), ScoreViews.read(SEEDED_SCORES)
    for annotator in expected.annotators + [ALL_ANNOTATORS]:
        for field in FLOAT_FIELDS:
            got = views.column(annotator, field, optional=True)
            assert got.tobytes() == expected.column(annotator, field, optional=True).tobytes()


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


@pytest.mark.parametrize("kind", ["segments", "sessions", "scores"])
@pytest.mark.parametrize("in_memory", [False, True], ids=["path", "lines"])
def test_a_byte_order_mark_at_the_very_start_is_dropped(tmp_path, fixture_paths, kind, in_memory):
    paths = dict(zip(["segments", "sessions"], fixture_paths), scores=_scores_file(tmp_path, fixture_paths))
    marked = dict(paths)
    marked[kind] = tmp_path / f"marked-{kind}.tsv"
    marked[kind].write_bytes("\ufeff".encode("utf-8") + paths[kind].read_bytes())
    if in_memory:
        marked[kind] = marked[kind].read_text(encoding="utf-8").splitlines(keepends=True)
    if kind == "scores":
        rows = [repr(row) for _, row in read_tsv(paths[kind], SegmentScores, "scores")]
        assert [repr(row) for _, row in read_tsv(marked[kind], SegmentScores, "scores")] == rows
        assert ScoreViews.read(marked[kind]).segment_ids == ScoreViews.read(paths[kind]).segment_ids
    else:
        assert load_corpus(marked["segments"], marked["sessions"]) == load_corpus(*fixture_paths)


@pytest.mark.parametrize("text, message", [
    ("\n\ufeff" + SEG_HEADER, "^segments: missing required column 'id'$"),  # not at the very start
    ("\ufeff\ufeff" + SEG_HEADER, "^segments: missing required column 'id'$"),  # only one is dropped
    ("\ufeff", "^segments: empty input"),
])
def test_a_byte_order_mark_elsewhere_stays(text, message):
    with pytest.raises(CorpusError, match=message):
        load_corpus(io.StringIO(text + "\n"), io.StringIO(SESS_HEADER + "\n"))
    rows = ["\ufeffs1\tsys\tsrc\tmt\tref\t", "s2\ufeff\tsys\tsrc\tmt\tref\t"]
    loaded = load_corpus(io.StringIO("\ufeff" + "\n".join([SEG_HEADER, *rows])), io.StringIO(SESS_HEADER))
    assert [seg.id for seg in loaded.segments] == ["\ufeffs1", "s2\ufeff"]


def test_a_line_several_chunks_long_is_one_piece(monkeypatch):
    """Each piece ends at the last LF read so far, however many reads a line takes."""
    monkeypatch.setattr(corpus, "_CHUNK_BYTES", 64)
    data = b"a" * 1000 + b"\n" + b"b" * 10 + b"\nccc"
    read = lambda start, stop: data[start:stop]
    assert list(corpus._pieces(read, 0, len(data))) == [data[:1012], b"ccc"]
    assert list(corpus._pieces(read, 1001, len(data))) == [data[1001:1012], b"ccc"]
    assert list(corpus._pieces(read, 0, 1000)) == [data[:1000]]


def test_a_file_without_lf_is_read_in_linear_time(tmp_path, monkeypatch):
    """A file with CR line ends (as old Mac editors wrote) is one line, so its
    header is the whole file. Joined once, its 32,768 reads copy 8 MB; a piece
    grown by a copy per read would copy about 137 GB."""
    monkeypatch.setattr(corpus, "_CHUNK_BYTES", 256)
    path = tmp_path / "segments.tsv"
    row = "s1\tsys\t" + "w" * 1000 + "\tmt\tref\t\r"
    path.write_bytes((SEG_HEADER + "\r" + row * ((8 << 20) // len(row))).encode())
    start = time.perf_counter()
    lines, columns, error = read_tsv_columns(path, Segment, "segments")
    assert time.perf_counter() - start < 2.0
    assert len(lines) == 0 and str(error) == "segments: duplicate column 'mt'"


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
        # no UTF-8 file holds a lone surrogate, so no line given in memory may
        (["s1\tsys\tsrc\tmt\tref\t", "s2\tsys\tsrc\tmt\ud800\tref\t"], [],
         "^segments: line 3: 'utf-8' codec can't decode byte 0xed in position 13"),
        # a row that load_corpus rejects is named before a bad cell on a later
        # line: the reader gives every good row before its error
        (["s1\tsys\tsrc\tmt\tref\t", "s1\tsys\tsrc\tmt\tref\t", "s2\tsys\tsrc\tmt\tref\t",
          "s3\tsys\tsrc\tmt\tref\tx"], [],
         "^segments: line 3: duplicate segment id 's1'$"),
        (["s1\tsys\tsrc\tmt\tref\t"], ["s9\tA\tpe\t1.0\t3", "s1\tA\tpe\t-1.0\t3"],
         "^sessions: line 2: unknown segment id 's9'$"),
    ],
)
def test_row_rejections_name_the_line(seg_rows, sess_rows, message):
    with pytest.raises(CorpusError, match=message):
        load_corpus(
            io.StringIO("\n".join([SEG_HEADER] + seg_rows) + "\n"),
            io.StringIO("\n".join([SESS_HEADER] + sess_rows) + "\n"),
        )


# Cell spellings: per field annotation ones that some column takes, and ones
# that break a rule in every column of a kind, or in some. Text cells are
# escaped on disk, so they hold no raw tab or LF, but may hold a lone CR.
_cell_text = st.text(alphabet="ab é\\tnr\r", max_size=4)
_CELLS = {
    "int": ["0", "1", " 2", "+3", "1_0", "9223372036854775807"],
    "float": ["0.0", "-0.0", "0.5", "1e-1", " 2", "5e-324", "3", "-1"],
}
_CELLS["float | None"] = _CELLS["float"] + [""]
_BAD_CELLS = [
    "", "x", "nan", "-inf", "1e999", "-2", "1.5", "9223372036854775808", "-9223372036854775809",
]


@st.composite
def _corpus_file(draw) -> tuple[type, tuple[str, ...], str]:
    """(Segment or PESession, its optional columns, the text of a file of them).

    About one cell in 30 and one row in 30 break a rule, so the first fault
    may come on any line.
    """
    cls = draw(st.sampled_from([Segment, PESession]))
    optional = ("da",) if cls is Segment else ()
    columns = draw(st.permutations(
        [f for f in fields(cls) if f.name not in optional or draw(st.booleans())]
    ))
    lines = ["\t".join(f.name for f in columns)]
    for _ in range(draw(st.integers(0, 12))):
        cells = [
            draw(st.sampled_from(_BAD_CELLS)) if draw(st.integers(0, 29)) == 0
            else draw(_cell_text) if f.type == "str"
            else draw(st.sampled_from(_CELLS[f.type]))
            for f in columns
        ]
        width = draw(st.integers(0, 29))
        if width == 0:
            cells.pop()
        elif width == 1:
            cells.append("1")
        lines.append("\t".join(cells))
    crlf = draw(st.sampled_from(["none", "all", "some"]))
    lines = [line + "\r" if crlf == "all" or crlf == "some" and draw(st.booleans()) else line
             for line in lines]
    for at in sorted(draw(st.lists(st.integers(0, len(lines)), max_size=3)), reverse=True):
        lines.insert(at, draw(st.sampled_from(["", "\r"])))
    return cls, optional, "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _rows_then_error(rows) -> list:
    """The repr of each row read, then the type and message of what ended the read, if any."""
    out = []
    try:
        for row in rows:
            out.append(repr(row))  # repr tells -0.0 from 0.0, which == does not
    except CorpusError as exc:
        out.append((type(exc), str(exc)))
    return out


@given(
    _corpus_file(),
    st.sampled_from(["path", "StringIO", "lines", "lines without LF"]),
    st.sampled_from([1, 60, 1 << 18]),  # bytes per chunk: one line, a few, the whole file
)
def test_read_tsv_gives_the_row_by_row_oracles_rows_then_error(drawn, source, chunk_bytes):
    cls, optional, text = drawn
    sources = {
        "StringIO": lambda path: io.StringIO(text),
        "lines": lambda path: io.StringIO(text).readlines(),  # split at LF only
        "lines without LF": lambda path: text.removesuffix("\n").split("\n"),
        "path": lambda path: path,
    }
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_CHUNK_BYTES", chunk_bytes)
        path = Path(tmp) / "file.tsv"
        path.write_text(text, encoding="utf-8")
        expected = _rows_then_error(row_read_tsv(path, cls, "file", optional))
        assert _rows_then_error(read_tsv(sources[source](path), cls, "file")) == expected


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize(
    "read",
    [lambda path: list(read_tsv(path, SegmentScores, "scores")), ScoreViews.read],
    ids=["read_tsv", "ScoreViews.read"],
)
@pytest.mark.parametrize("lineno", [2, 3000])  # in the first chunk, in a later one
def test_no_file_stays_open_after_a_reader_raises(tmp_path, fixture_paths, read, lineno):
    path = _scores_file(tmp_path, fixture_paths)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    ids_and_rest = [row.split("\t", 1) for row in rows]
    copies = range(lineno // len(rows) + 1)  # of the rows, each with segment ids of its own
    rows = [f"{sid}_{copy}\t{rest}" for copy in copies for sid, rest in ids_and_rest][: lineno - 2]
    bad = header.count("\t") * "1\t" + "x"  # the last column is da, a float
    path.write_text("\n".join([header, *rows, bad]) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^scores: line {lineno}: non-numeric da 'x'$") as raised:
        read(path)
    assert raised.value.__traceback__ is not None  # which keeps every frame of the read alive
    fds = Path("/proc/self/fd")
    assert str(path) not in {os.readlink(fd) for fd in fds.iterdir() if fd.is_symlink()}
