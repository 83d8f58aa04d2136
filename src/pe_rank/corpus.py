"""Loading, validation, and tokenization of post-editing evaluation corpora.

A corpus couples translation segments (source, MT output, independent
reference, optional DA score) with post-editing sessions (the PE'ed text, the
seconds it took, and the keystrokes pressed). Both sides arrive as UTF-8
tab-separated files; text fields are escaped so they never contain raw tabs
or newlines on disk. `format_tsv` writes every TSV file, and `read_tsv_columns`
reads every one, in chunks of lines, parsing and checking each column whole;
`read_tsv` gives its rows as dataclass instances. A file of several MB is cut
at line starts into parts, one per usable CPU while each holds at least
`_MIN_PART_BYTES`; a forked process parses each part but the first (see
`forked`), and the parts are joined in file order, so the result is the same
at any number of parts.
"""

from __future__ import annotations

import math
import os
import re
import stat
import unicodedata
from dataclasses import MISSING, dataclass, fields
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from . import forked

TokenList = list[str]
T = TypeVar("T")

# Annotator label reserved for the averaged view in score files.
ALL_ANNOTATORS = "ALL"


class CorpusError(ValueError):
    """Malformed input file (corpus or scores) or violated corpus invariant."""


@dataclass(frozen=True)
class Segment:
    """One translation unit: source, MT output, reference, optional DA."""

    id: str
    system_id: str
    source: str
    mt: str
    reference: str
    da: float | None = None


@dataclass(frozen=True)
class PESession:
    """One annotator's post-edit of one segment."""

    segment_id: str
    annotator_id: str
    pe_text: str
    pe_time_sec: float
    keystrokes: int


@dataclass(frozen=True)
class Corpus:
    """Immutable segment/session collection; safe for concurrent reads."""

    segments: tuple[Segment, ...]
    sessions: tuple[PESession, ...]
    annotators: frozenset[str]

    def sessions_by_segment(self) -> dict[str, list[PESession]]:
        index: dict[str, list[PESession]] = {s.id: [] for s in self.segments}
        for sess in self.sessions:
            index[sess.segment_id].append(sess)
        for sessions in index.values():
            sessions.sort(key=lambda s: s.annotator_id)
        return index


@dataclass(frozen=True)
class ValidationWarning:
    kind: str  # "missing-session" | "zero-time" | "missing-da"
    message: str


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> TokenList:
    """Lowercase and split into tokens.

    Whitespace separates chunks; leading and trailing punctuation characters
    of each chunk become single-character tokens of their own, interior
    punctuation stays attached ("it's" survives, "hours." splits).
    """
    tokens: TokenList = []
    for chunk in text.lower().split():
        lead: list[str] = []
        while chunk and _is_punct(chunk[0]):
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and _is_punct(chunk[-1]):
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


def mt_char_count(text: str) -> int:
    """Unicode scalar values in the raw text, excluding outer whitespace."""
    return len(text.strip())


_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})
_UNESCAPES = {code[1]: chr(char) for char, code in _ESCAPES.items()}


def escape_field(value: str) -> str:
    return value.translate(_ESCAPES)


_ESCAPE_CODE = re.compile(r"\\([\\tnr])")


def unescape_field(value: str) -> str:
    """Inverse of escape_field; a backslash before any other character stays."""
    if "\\" not in value:
        return value
    return _ESCAPE_CODE.sub(lambda m: _UNESCAPES[m[1]], value)


# Smallest value of a numeric column, in any file that has it: a segment has at
# least one MT word, and no time, keystroke count, PETpW or keystroke rate is
# negative. An `int` column is read into int64, which bounds it above.
MINIMUM = {"mt_tokens": 1, "keystrokes": 0, "pe_time_sec": 0.0, "petpw": 0.0, "keys_per_char": 0.0}
INT_MAXIMUM = np.iinfo(np.int64).max


def _cell_error(column: str, annotation: str, raw: str) -> str | None:
    """What is wrong with one cell, by its column's dataclass field annotation, or None.

    `int`, `float` and `float | None` cells must be numbers no smaller than the
    column's MINIMUM, a float finite and an int at most INT_MAXIMUM; only a
    `float | None` cell may be empty. `str` cells are free.
    """
    if annotation == "str" or (annotation == "float | None" and raw == ""):
        return None
    number = int if annotation == "int" else float
    try:
        value = number(raw)
    except ValueError:
        return f"non-numeric {column} {raw!r}"
    if number is float and not math.isfinite(value):
        return f"non-finite {column} {raw!r}"
    if value < MINIMUM.get(column, -math.inf):
        return f"{column} {raw!r} below minimum {MINIMUM[column]}"
    if number is int and value > INT_MAXIMUM:
        return f"{column} {raw!r} above maximum {INT_MAXIMUM}"
    return None


def _cell_indices(header: Sequence[str], cls: type, label: str) -> list[int | None]:
    """The header's cell index of each field of `cls`, None for an absent one.

    Raises CorpusError naming `label` for a duplicate or unexpected column, or a
    missing one whose field has no default.
    """
    seen: set[str] = set()
    for col in header:
        if col in seen:
            raise CorpusError(f"{label}: duplicate column '{col}'")
        seen.add(col)
    for f in fields(cls):
        if f.name not in seen and f.default is MISSING:
            raise CorpusError(f"{label}: missing required column '{f.name}'")
    known = {f.name for f in fields(cls)}
    for col in header:
        if col not in known:
            raise CorpusError(f"{label}: unexpected column '{col}'")
    return [header.index(f.name) if f.name in seen else None for f in fields(cls)]


# Bytes read per chunk: the split cells of one chunk are a few MB of str
# objects, whatever the file's size.
_CHUNK_BYTES = 1 << 18

# The fewest bytes of data rows per part of a read. On a shared 2-vCPU host
# (Python 3.11), a fork, pickle and reap cost about 3 ms and 1 MB of a scores
# file parses in about 18 ms, so a part of 1 MB pays for its fork many times.
_MIN_PART_BYTES = 1 << 20

_BOM = "\ufeff".encode("utf-8")


def _part_count(size: int) -> int:
    """One part per usable CPU, while each holds _MIN_PART_BYTES of data rows."""
    return forked.part_count(size, _MIN_PART_BYTES)


def _pieces(read: Callable[[int, int], bytes], start: int, stop: int) -> Iterator[bytes]:
    """The bytes from `start` to `stop`, read _CHUNK_BYTES at a time, in pieces
    that end at the last LF read so far; the last piece ends at `stop`."""
    held: list[bytes] = []  # the reads since the last LF, joined once one comes
    while start < stop and (data := read(start, min(stop, start + _CHUNK_BYTES))):
        start += len(data)
        if cut := data.rfind(b"\n") + 1:
            yield b"".join([*held, data[:cut]])
            held = [data[cut:]]
        else:
            held.append(data)
    if rest := b"".join(held):
        yield rest


def _line_start(read: Callable[[int, int], bytes], at: int, stop: int) -> int:
    """The offset of the first line that starts at or after `at`, or `stop`."""
    at -= 1  # an LF here ends the line before
    while at < stop and (data := read(at, min(stop, at + _CHUNK_BYTES))):
        if (lf := data.find(b"\n")) >= 0:
            return at + lf + 1
        at += len(data)
    return stop


def _decoded(data: bytes, end: int) -> tuple[str, tuple[int, str] | None]:
    """UTF-8 lines, the first of them line `end` + 1, as text; if a line does not
    decode, the text before it and the (line number, problem) that names it."""
    try:
        return data.decode("utf-8"), None
    except UnicodeDecodeError as exc:  # lines end at LF, so no character spans two
        start = data.rfind(b"\n", 0, exc.start) + 1  # the bad line's first byte
        line = end + 1 + data.count(b"\n", 0, start)
        bad = UnicodeDecodeError(exc.encoding, data[start:exc.end], exc.start - start,
                                 exc.end - start, exc.reason)  # positions within the line
        return data[:start].decode("utf-8"), (line, str(bad))


def _header(
    read: Callable[[int, int], bytes], size: int, cls: type, label: str
) -> tuple[int, int, list, int]:
    """(start, lines, plan, width) of the header, the first non-blank line after
    one byte order mark at the very start of the input, if there is one: the
    offset after its line, its line number, each field of `cls` with its cell
    index (see `_cell_indices`), and the number of cells. Raises CorpusError
    naming `label` for a header that is bad or not UTF-8, or for no header."""
    start = len(_BOM) if read(0, len(_BOM)) == _BOM else 0
    lines = 0
    for data in _pieces(read, start, size):
        for row in data.removesuffix(b"\n").split(b"\n"):
            lines += 1
            end = min(size, start + len(row) + 1)  # past its LF
            if row.removesuffix(b"\r"):  # decoded with its LF, as a data line is
                text, problem = _decoded(read(start, end), lines - 1)
                if problem:
                    raise CorpusError(f"{label}: line {problem[0]}: {problem[1]}")
                header = text.removesuffix("\n").removesuffix("\r").split("\t")
                plan = list(zip(fields(cls), _cell_indices(header, cls, label)))
                return end, lines, plan, len(header)
            start = end
    raise CorpusError(f"{label}: empty input (header row required)")


def _columns(rows: list[str], plan: list, width: int) -> tuple[int, list, str | None]:
    """(n, columns, problem) for data rows: `rows[:n]` are good, and `problem` is
    what is wrong with `rows[n]`, or None if n is len(rows). `columns` holds one
    column of `rows[:n]` per (field, cell index) of `plan`, none if n is 0: the
    raw (escaped) cells of a `str` field, int64 for an `int` one, float64 for a
    `float` or `float | None` one, NaN for an empty cell. Each column is parsed
    and checked whole. If a check fails, a scan in row, then field, order finds
    the first bad row by `_cell_error`."""
    columns: list = []
    if set(map(str.count, rows, repeat("\t"))) == {width - 1}:
        cells = "\t".join(rows).split("\t")
        for f, index in plan:
            column = [""] * len(rows) if index is None else cells[index::width]
            if f.type != "str" and (column := _numbers(column, f.name, f.type)) is None:
                break
            columns.append(column)
    if len(columns) == len(plan):
        return len(rows), columns, None
    for at, row in enumerate(rows):
        cells = row.split("\t")
        if len(cells) != width:
            problem = f"expected {width} fields, got {len(cells)}"
        else:
            problems = (_cell_error(f.name, f.type, cells[i]) for f, i in plan if i is not None)
            problem = next(filter(None, problems), None)
        if problem:
            return at, _columns(rows[:at], plan, width)[1] if at else [], problem
    raise AssertionError("a column check failed, but no cell breaks `_cell_error`'s rule")


def _numbers(cells: list[str], column: str, annotation: str) -> np.ndarray | None:
    """A numeric column as an array, NaN for an empty cell; None if a cell breaks `_cell_error`."""
    number, dtype = (int, np.int64) if annotation == "int" else (float, np.float64)
    missing = cells.count("") if annotation == "float | None" else 0
    if missing:  # read as NaN, which no other cell may be
        cells = [cell or "nan" for cell in cells]
    try:  # an int beyond int64 overflows
        parsed = np.fromiter(map(number, cells), dtype=dtype, count=len(cells))
    except (ValueError, OverflowError):
        return None
    if number is float and (np.isinf(parsed).any() or np.isnan(parsed).sum() != missing):
        return None
    if (parsed < MINIMUM.get(column, -np.inf)).any():
        return None
    return parsed


def read_tsv_columns(
    source: str | Path | Iterable[str], cls: type, label: str
) -> tuple[np.ndarray, dict[str, object], CorpusError | None]:
    """The data rows of a TSV file as one column per field of the dataclass `cls`.

    The source is a path or an iterable of lines; a line ends at LF, and one CR
    before it is dropped, as is one byte order mark at the very start. The
    first non-blank line is the header: one column per field of `cls`, in any
    order; the column of a field with a default may be absent and then reads
    as empty cells. Blank lines are skipped but counted, so the line number of
    every error is the line in the file.

    After the header, the file is cut at line starts into `_part_count` parts
    of about equal size; the first is parsed here and each other one in a
    forked process (see `forked.run_parts`), and the parts are joined in file
    order, so the result is the same at any part count.

    Returns (lines, columns, error). `lines` is int64, row i's line number. A
    `str` column is (codes, values): an int64 code per row, and the unescaped
    value of each code, numbered in order of first appearance. An `int` column
    is int64; a `float` or `float | None` column is float64, NaN for an empty
    cell. `error` is None, or the CorpusError naming `label` and the first bad
    line: a bad header, a bad row (see `_cell_error`) or a line that is not
    UTF-8; the columns then hold every row before it.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as file:
            fd = file.fileno()
            info = os.fstat(fd)
            # A regular file is read by offset, so no part moves the position
            # another reads from; a pipe, or any file where os has no pread, is
            # read whole.
            if stat.S_ISREG(info.st_mode) and hasattr(os, "pread"):
                return _read(lambda start, stop: os.pread(fd, stop - start, start),
                             info.st_size, cls, label)
            data = file.read()
    else:  # lines, each with its LF or not, read whole; a lone surrogate fails on its line
        text = "".join(line if line.endswith("\n") else line + "\n" for line in source)
        data = text.encode("utf-8", "surrogatepass")
    return _read(lambda start, stop: data[start:stop], len(data), cls, label)


def _read(
    read: Callable[[int, int], bytes], size: int, cls: type, label: str
) -> tuple[np.ndarray, dict[str, object], CorpusError | None]:
    """`read_tsv_columns` of the `size` bytes of which `read(start, stop)` gives a range."""
    try:
        start, before, plan, width = _header(read, size, cls, label)
    except CorpusError as exc:
        parts, error = [], exc
    else:
        n = _part_count(size - start)
        cuts = sorted({start, size, *(_line_start(read, start + (size - start) * k // n, size)
                                      for k in range(1, n))})
        ranges = list(zip(cuts, cuts[1:])) or [(start, size)]
        parts = forked.run_parts(lambda r: _read_part(read, *r, plan, width), ranges, "reading")
        error = None
    values = {f.name: {} for f in fields(cls) if f.type == "str"}  # unescaped value -> code
    chunks = {  # each column's chunks, after an empty one of its dtype
        f.name: [np.empty(0, np.float64 if f.type.startswith("float") else np.int64)]
        for f in fields(cls)
    }
    lines = [np.empty(0, np.int64)]
    for count, part_lines, columns, part_values, problem in parts:  # in file order
        lines.append(part_lines + before)
        for name, column in columns.items():
            if name in values and values[name]:  # renumbered in order of first appearance
                known, own = values[name], part_values[name]
                recode = np.fromiter((known.setdefault(value, len(known)) for value in own),
                                     np.int64, len(own))
                column = [recode[codes] for codes in column]
            elif name in values:  # the first values read: their codes stand
                values[name] = part_values[name]
            chunks[name].extend(column)
        if problem:  # the first bad line of the file, since every part before this one is good
            error = CorpusError(f"{label}: line {before + problem[0]}: {problem[1]}")
            break
        before += count
    # each column's chunks are let go once joined, so at most one column is held twice
    out: dict[str, object] = {name: np.concatenate(chunks.pop(name)) for name in list(chunks)}
    for name, known in values.items():
        out[name] = (out[name], list(known))
    return np.concatenate(lines), out, error


def _read_part(
    read: Callable[[int, int], bytes], start: int, stop: int, plan: list, width: int
) -> tuple[int, np.ndarray, dict[str, list], dict[str, dict[str, int]], tuple[int, str] | None]:
    """(count, lines, columns, values, problem) for the data lines from byte
    `start` to `stop`, which starts a line: the number of lines read, blank ones
    too; the line number of each good row, counting from 1 at `start`; each
    field's column in chunks (see `_columns`), a `str` one as int64 codes; for
    each `str` field, its unescaped values, each mapped to its code, numbered
    in order of first appearance; and the (line number, problem) of the first
    bad line, or None. The rows read are those before it."""
    values = {f.name: {} for f, _ in plan if f.type == "str"}  # unescaped value -> code
    columns: dict[str, list] = {f.name: [] for f, _ in plan}
    lines: list[Sequence[int]] = []  # each chunk's line numbers of good rows
    end = 0  # number of the last line read
    problem = None
    for data in _pieces(read, start, stop):
        text, problem = _decoded(data, end)
        if "\r" in text:  # one CR before a line's LF, or before the file's end, is dropped
            text = text.replace("\r\n", "\n").removesuffix("\r")
        rows = text.removesuffix("\n").split("\n")
        numbers: Sequence[int] = range(end + 1, end + 1 + len(rows))
        end += len(rows)
        if "" in rows:  # blank lines are skipped, but counted
            numbers = [n for n, row in zip(numbers, rows) if row]
            rows = list(filter(None, rows))
        if rows:
            n, chunk, bad = _columns(rows, plan, width)
            if bad:  # named before an undecodable line after it
                problem = (numbers[n], bad)
            lines.append(numbers[:n])
            for (f, _), column in zip(plan, chunk):
                if f.type == "str":  # two raw cells may unescape alike (a lone backslash stays)
                    known = values[f.name]
                    codes = {raw: known.setdefault(unescape_field(raw), len(known))
                             for raw in dict.fromkeys(column)}
                    column = np.fromiter(map(codes.__getitem__, column), np.int64, len(column))
                columns[f.name].append(column)
        if problem:
            break
    return end, np.fromiter(chain.from_iterable(lines), np.int64), columns, values, problem


def read_tsv(
    source: str | Path | Iterable[str], cls: type[T], label: str
) -> Iterator[tuple[int, T]]:
    """Yield (line number, cls instance) for each good row of `read_tsv_columns`,
    then raise its error, if any."""
    lines, columns, error = read_tsv_columns(source, cls, label)
    values = []
    for f in fields(cls):
        column = columns[f.name]
        if f.type == "str":
            codes, known = column
            values.append(map(known.__getitem__, codes.tolist()))
        elif f.type == "float | None":
            values.append([None if math.isnan(v) else v for v in column.tolist()])
        else:
            values.append(column.tolist())
    yield from zip(lines.tolist(), map(cls, *values))
    if error:
        raise error


def format_tsv(header: Sequence[str], rows: Iterable[Mapping]) -> str:
    """TSV text: the header, then each row's values under the header's keys.

    None is an empty cell, a bool is `true`/`false`, a float is its repr and
    anything else is its escaped str, as `read_tsv` reads it back.
    """
    lines = ["\t".join(header)]
    lines.extend("\t".join(_format_cell(row[key]) for key in header) for row in rows)
    return "\n".join(lines) + "\n"


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):  # float(): a subclass, such as np.float64, may repr otherwise
        return repr(float(value))
    return escape_field(str(value))


def load_corpus(
    segments_source: str | Path | Iterable[str],
    sessions_source: str | Path | Iterable[str],
) -> Corpus:
    """Load and cross-validate the two corpus files.

    Raises CorpusError naming the file, the line and, where one is at fault,
    the id or column: for malformed headers and cells (see `read_tsv`), empty
    or duplicate ids, sessions that reference unknown segments or the reserved
    annotator id, and empty text fields.
    """
    segments: dict[str, Segment] = {}
    for lineno, seg in read_tsv(segments_source, Segment, "segments"):
        problem = (
            "empty segment id" if not seg.id.strip()
            else f"duplicate segment id '{seg.id}'" if seg.id in segments
            else f"segment '{seg.id}': empty mt text" if not seg.mt.strip()
            else f"segment '{seg.id}': empty reference text" if not seg.reference.strip()
            else f"segment '{seg.id}': mt tokenizes to nothing" if not tokenize(seg.mt)
            else None
        )
        if problem:
            raise CorpusError(f"segments: line {lineno}: {problem}")
        segments[seg.id] = seg

    sessions: list[PESession] = []
    seen_pairs: set[tuple[str, str]] = set()
    for lineno, sess in read_tsv(sessions_source, PESession, "sessions"):
        sid, annotator = pair = (sess.segment_id, sess.annotator_id)
        problem = (
            f"unknown segment id '{sid}'" if sid not in segments
            else "empty annotator id" if not annotator.strip()
            else f"annotator id '{ALL_ANNOTATORS}' is reserved" if annotator == ALL_ANNOTATORS
            else f"duplicate session for segment '{sid}', annotator '{annotator}'"
            if pair in seen_pairs
            else "empty pe_text" if not sess.pe_text.strip()
            else None
        )
        if problem:
            raise CorpusError(f"sessions: line {lineno}: {problem}")
        seen_pairs.add(pair)
        sessions.append(sess)

    return Corpus(
        segments=tuple(segments.values()),
        sessions=tuple(sessions),
        annotators=frozenset(s.annotator_id for s in sessions),
    )


def validate_corpus(corpus: Corpus) -> list[ValidationWarning]:
    """Report gaps without mutating anything; empty list means complete."""
    warnings: list[ValidationWarning] = []
    covered = {(s.segment_id, s.annotator_id) for s in corpus.sessions}
    annotators = sorted(corpus.annotators)
    for seg in corpus.segments:
        for annotator in annotators:
            if (seg.id, annotator) not in covered:
                warnings.append(
                    ValidationWarning(
                        kind="missing-session",
                        message=f"annotator '{annotator}' has no session for segment '{seg.id}'",
                    )
                )
    for sess in corpus.sessions:
        if sess.pe_time_sec == 0:
            warnings.append(
                ValidationWarning(
                    kind="zero-time",
                    message=(
                        f"zero post-editing time for segment '{sess.segment_id}', "
                        f"annotator '{sess.annotator_id}'"
                    ),
                )
            )
    for seg in corpus.segments:
        if seg.da is None:
            warnings.append(
                ValidationWarning(
                    kind="missing-da",
                    message=f"segment '{seg.id}' has no DA score",
                )
            )
    return warnings

