"""Reading a file in forked parts gives what reading it in one part gives: the
same line numbers, every column bit for bit, the same `str` values and the
same error, whatever the number of parts and wherever the cuts fall.

`corpus._part_count` is patched to force the number of parts. A part's range
is cut at a line start, so a cut can fall just after a blank line, a CRLF or
a bad line; a part must read up to its cut and no further, and must not move
the file position another part reads from.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from pe_rank import corpus
from pe_rank.corpus import PESession, Segment, read_tsv_columns
from pe_rank.taskmetrics import SegmentScores

# Raw cells of a `str` column: ids shared by every part, and escapes that
# unescape alike (a backslash before any character but \, t, n or r stays).
_STR_CELLS = ["s1", "s2", "a1", "ALL", "é", "\\q", "\\\\q", "\\t", "\\\\t", "x\\", "x\\\\", ""]
_NUMBER_CELLS = {
    "int": ["1", "2", "40", "007"],
    "float": ["0.5", "1", "-0.0", "0.0", "1e-300", "2.25"],
    "float | None": ["", "0.5", "-0.0", "3"],
}
# A cell that breaks a rule in some column: not a number, not finite, below a minimum.
_BAD_CELLS = ["x", "inf", "nan", "-inf", "1e400", "-1", "9223372036854775808"]
_CLASSES = {"sessions": PESession, "segments": Segment, "scores": SegmentScores}
_SESSIONS_HEADER = b"segment_id\tannotator_id\tpe_text\tpe_time_sec\tkeystrokes\n"


def _row(draw, columns: list) -> bytes:
    cells = [
        draw(st.sampled_from(_STR_CELLS if f.type == "str" else _NUMBER_CELLS[f.type]))
        for f in columns
    ]
    return "\t".join(cells).encode("utf-8")


def _bad_row(draw, columns: list) -> bytes:
    """A row with one fault: a bad cell, a cell too many or too few, or bytes that are not UTF-8."""
    cells = _row(draw, columns).split(b"\t")
    kind = draw(st.sampled_from(["cell", "width", "utf-8"]))
    if kind == "cell":
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(_BAD_CELLS)).encode()
    elif kind == "width":
        cells = cells[:-1] if draw(st.booleans()) else [*cells, b"1"]
    else:
        cells[0] += draw(st.sampled_from([b"\xff", b"\xe2\x82", b"\xed\xa0\x80"]))
    return b"\t".join(cells)


@st.composite
def _tsv_files(draw) -> tuple[str, bytes]:
    """A file's label and bytes: short rows, many blank lines and CRLFs, up to
    three bad rows anywhere, and an end with or without LF, or a lone CR."""
    label = draw(st.sampled_from(sorted(_CLASSES)))
    columns = list(fields(_CLASSES[label]))
    if label == "segments" and draw(st.booleans()):
        columns = columns[:-1]  # no da column
    lines = ["\t".join(f.name for f in columns).encode()]
    for _ in range(draw(st.integers(0, 30))):
        lines.append(draw(st.sampled_from([b"", b"\r"])) if draw(st.integers(0, 3)) == 0
                     else _row(draw, columns))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        lines.insert(draw(st.integers(1, len(lines))), _bad_row(draw, columns))
    ends = [draw(st.sampled_from([b"\n", b"\r\n"])) for _ in lines]
    ends[-1] = draw(st.sampled_from([b"\n", b"\r\n", b"", b"\r", b"\n\r"]))
    return label, b"".join(line + end for line, end in zip(lines, ends))


def _read(source: Path | list[str], label: str, parts: int) -> tuple:
    with mock.patch.object(corpus, "_part_count", lambda size: parts):
        result = read_tsv_columns(source, _CLASSES[label], label)
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    return result


def _assert_same(got: tuple, expected: tuple) -> None:
    (lines, columns, error), (lines_1, columns_1, error_1) = got, expected
    assert lines.dtype == lines_1.dtype and lines.tolist() == lines_1.tolist()
    assert columns.keys() == columns_1.keys()
    for name, column in columns.items():
        if isinstance(column, tuple):  # str: codes and values
            assert column[0].tolist() == columns_1[name][0].tolist(), name
            assert column[1] == columns_1[name][1], name
        else:  # the bytes tell NaN, -0.0 and 0.0 apart
            assert (column.dtype, column.tobytes()) == (columns_1[name].dtype, columns_1[name].tobytes()), name
    assert (type(error), str(error)) == (type(error_1), str(error_1))


@settings(max_examples=300, deadline=None)
@given(_tsv_files(), st.sampled_from([2, 3]), st.sampled_from([1, 7, 1 << 18]), st.booleans())
def test_a_read_in_parts_is_the_read_in_one_part(drawn, parts, chunk_bytes, in_memory):
    label, data = drawn
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(corpus, "_CHUNK_BYTES", chunk_bytes):
        source = Path(tmp) / "file.tsv"
        source.write_bytes(data)
        if in_memory:  # lines of str; a byte that is not UTF-8 stays so, as a lone surrogate
            source = [line + "\n" for line in data.decode("utf-8", "surrogateescape").split("\n")]
        _assert_same(_read(source, label, parts), _read(source, label, 1))


# Rows around the cuts: a good row, a blank line, a CR-only line, a row that
# ends in CRLF, and one bad row per part at most, once in two parts at once.
_PATTERN = [b"s1\ta1\tp\t1.5\t3\n", b"\n", b"\r\n", b"s2\ta1\t\\\\q\t0.5\t2\r\n"]


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("bad", [(), (5,), (23,), (40,), (5, 23), (23, 40)], ids=str)
def test_cuts_at_every_byte_of_blank_lines_crlf_and_bad_rows(tmp_path, parts, bad):
    """Padding the first row shifts every cut over each byte of the lines
    around it; a bad row (a non-finite cell) on the given lines must be named
    at the earliest, whichever part it falls in."""
    rows = [_PATTERN[i % len(_PATTERN)] for i in range(48)]
    for i in bad:
        rows[i] = b"s3\ta2\tp\tinf\t1\n"
    path = tmp_path / "sessions.tsv"
    for pad in range(24):
        first = b"s0\ta1\t" + b"p" * pad + b"\t1.0\t1\n"
        path.write_bytes(_SESSIONS_HEADER + first + b"".join(rows))
        one = _read(path, "sessions", 1)
        assert (str(one[2]) == f"sessions: line {bad[0] + 3}: non-finite pe_time_sec 'inf'"
                if bad else one[2] is None)
        _assert_same(_read(path, "sessions", parts), one)


def test_a_large_file_is_read_in_parts_without_forcing(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    path = tmp_path / "sessions.tsv"
    rows = (b"s%d\ta1\tp\t1.5\t3\n" % i for i in range(2 * corpus._MIN_PART_BYTES // 15))
    path.write_bytes(_SESSIONS_HEADER + b"".join(rows))
    calls = []
    real = corpus._read_part
    monkeypatch.setattr(corpus, "_read_part", lambda *args: calls.append(args[1:3]) or real(*args))
    lines, columns, error = read_tsv_columns(path, PESession, "sessions")
    assert len(calls) == 1  # the parent's part; a child's calls are not seen here
    assert calls[0][1] < path.stat().st_size  # which ends before the file does
    assert error is None and lines.tolist() == list(range(2, 2 + len(lines)))
    codes, ids = columns["segment_id"]
    assert codes.tolist() == list(range(len(ids))) and ids[-1] == f"s{len(ids) - 1}"


@pytest.mark.parametrize("parent_waits", [False, True], ids=["at once", "parent waits"])
def test_no_part_moves_the_position_another_reads_from(tmp_path, monkeypatch, parent_waits):
    """Many small reads in every part at once, or the parent's only after the
    children have read theirs: a part that read through a shared file
    position would read another's rows."""
    path = tmp_path / "sessions.tsv"
    path.write_bytes(_SESSIONS_HEADER + b"".join(b"s%d\ta1\tp\t1.5\t3\n" % i for i in range(3000)))
    monkeypatch.setattr(corpus, "_CHUNK_BYTES", 64)
    one = _read(path, "sessions", 1)
    if parent_waits:
        real, parent = corpus._read_part, os.getpid()
        monkeypatch.setattr(corpus, "_read_part", lambda *args: (
            os.getpid() == parent and time.sleep(0.5), real(*args))[1])
    _assert_same(_read(path, "sessions", 3), one)


def test_a_path_reads_the_same_where_os_has_no_pread_or_fork(tmp_path, monkeypatch):
    """Without os.pread a path is read whole and cut in memory; without
    os.fork too (as on Windows) it is read in one part, however large."""
    path = tmp_path / "sessions.tsv"
    rows = b"".join(b"s%d\ta1\tp\t1.5\t3\r\n\n" % i for i in range(3000))
    path.write_bytes(_SESSIONS_HEADER + rows + b"s\ta1\tp\tinf\t1\n")
    one = _read(path, "sessions", 1)
    monkeypatch.delattr(os, "pread")
    _assert_same(_read(path, "sessions", 3), one)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(corpus, "_MIN_PART_BYTES", 1)
    assert corpus._part_count(path.stat().st_size) == 1
    _assert_same(read_tsv_columns(path, PESession, "sessions"), one)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_path_that_is_not_a_regular_file_is_read_whole(tmp_path):
    """A named pipe has no offsets to read by: it is read whole, in one part."""
    data = b"\xef\xbb\xbfsegment_id\tannotator_id\tpe_text\tpe_time_sec\tkeystrokes\r\n\ns1\ta1\tp\t1.5\t3\n"
    path = tmp_path / "sessions.tsv"
    path.write_bytes(data)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        _assert_same(_read(fifo, "sessions", 3), _read(path, "sessions", 1))
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
