"""Loading, validation, and tokenization of post-editing evaluation corpora.

A corpus couples translation segments (source, MT output, independent
reference, optional DA score) with post-editing sessions (the PE'ed text, the
seconds it took, and the keystrokes pressed). Both sides arrive as UTF-8
tab-separated files; text fields are escaped so they never contain raw tabs
or newlines on disk. `format_tsv` writes every TSV file, and `_parse` parses
it in chunks of lines, column by column: `read_tsv` reads it as rows,
`read_tsv_columns` as the columns of the whole file.
"""

from __future__ import annotations

import io
import math
import re
import unicodedata
from dataclasses import MISSING, dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

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


def _parse(
    source: str | Path | Iterable[str], cls: type, label: str
) -> Iterator[tuple[Sequence[int], list]]:
    """The data rows of a TSV file as `_columns` yields them, a chunk of lines
    at a time, under `read_tsv`'s rules; CorpusError is raised with the file closed."""
    if isinstance(source, (str, Path)):
        file = open(source, "rb")
    else:  # lines, each with its LF or not, read whole; a lone surrogate fails on its line
        text = "".join(line if line.endswith("\n") else line + "\n" for line in source)
        file = io.BytesIO(text.encode("utf-8", "surrogatepass"))
    header = None
    end = 0  # number of the last line read
    with file:
        while lines := file.readlines(_CHUNK_BYTES):
            text, error = _decoded(b"".join(lines), end, label)
            if "\r" in text:  # one CR before a line's LF, or before the file's end, is dropped
                text = text.replace("\r\n", "\n").removesuffix("\r")
            rows = text.removesuffix("\n").split("\n")
            numbers: Sequence[int] = range(end + 1, end + 1 + len(rows))
            end += len(rows)
            if "" in rows:  # blank lines are skipped, but counted
                numbers = [n for n, row in zip(numbers, rows) if row]
                rows = list(filter(None, rows))
            if header is None and rows:
                header = rows.pop(0).split("\t")
                numbers = numbers[1:]
                plan = list(zip(fields(cls), _cell_indices(header, cls, label)))
            if rows:
                yield from _columns(rows, numbers, plan, len(header), label)
            if error:
                raise error
    if header is None:
        raise CorpusError(f"{label}: empty input (header row required)")


def _decoded(data: bytes, end: int, label: str) -> tuple[str, CorpusError | None]:
    """UTF-8 lines, the first of them line `end` + 1, as text; if a line does not
    decode, the text before it and the CorpusError naming it."""
    try:
        return data.decode("utf-8"), None
    except UnicodeDecodeError as exc:  # lines end at LF, so no character spans two
        start = data.rfind(b"\n", 0, exc.start) + 1  # the bad line's first byte
        line = end + 1 + data.count(b"\n", 0, start)
        bad = UnicodeDecodeError(exc.encoding, data[start:exc.end], exc.start - start,
                                 exc.end - start, exc.reason)  # positions within the line
        return data[:start].decode("utf-8"), CorpusError(f"{label}: line {line}: {bad}")


def _columns(
    rows: list[str], numbers: Sequence[int], plan: list, width: int, label: str
) -> Iterator[tuple[Sequence[int], list]]:
    """Yield (line numbers, one column per (field, cell index) of `plan`) of data rows:
    the raw (escaped) cells of a `str` field, int64 for an `int` one, float64 for
    a `float` or `float | None` one, NaN for an empty cell. Each column is parsed
    and checked whole. If a check fails, a scan in row, then field, order finds
    the first bad row by `_cell_error`: the rows before it are yielded, then
    CorpusError names it."""
    columns: list = []
    if set(map(str.count, rows, repeat("\t"))) == {width - 1}:
        cells = "\t".join(rows).split("\t")
        for f, index in plan:
            column = [""] * len(rows) if index is None else cells[index::width]
            if f.type != "str" and (column := _numbers(column, f.name, f.type)) is None:
                break
            columns.append(column)
    if len(columns) == len(plan):
        yield numbers, columns
        return
    for at, row in enumerate(rows):
        cells = row.split("\t")
        if len(cells) != width:
            problem = f"expected {width} fields, got {len(cells)}"
        else:
            problems = (_cell_error(f.name, f.type, cells[i]) for f, i in plan if i is not None)
            problem = next(filter(None, problems), None)
        if problem:
            if at:
                yield from _columns(rows[:at], numbers[:at], plan, width, label)
            raise CorpusError(f"{label}: line {numbers[at]}: {problem}")
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


def read_tsv(
    source: str | Path | Iterable[str], cls: type[T], label: str
) -> Iterator[tuple[int, T]]:
    """Yield (line number, cls instance) for each data row of a TSV file.

    The source is a path or an iterable of lines; a line ends at LF, and one CR
    before it is dropped. The first non-blank line is the header: one column
    per field of the dataclass `cls`, in any order; the column of a field with a
    default may be absent and then reads as empty cells. Blank lines are
    skipped but counted, so the line number of every error is the line in the
    file. A bad row (see `_cell_error`), or a line that is not UTF-8,
    raises CorpusError naming `label` and its line.
    """
    for numbers, columns in _parse(source, cls, label):
        values = []
        for f, column in zip(fields(cls), columns):
            if f.type == "str":
                values.append(map(unescape_field, column))
            elif f.type == "float | None":
                values.append([None if math.isnan(v) else v for v in column.tolist()])
            else:
                values.append(column.tolist())
        yield from zip(numbers, map(cls, *values))


def read_tsv_columns(
    source: str | Path | Iterable[str], cls: type, label: str
) -> tuple[Callable[[int], int], dict[str, object], CorpusError | None]:
    """The data rows of a TSV file (a path or an iterable of lines), read as by
    `read_tsv`, as one column per field of `cls`.

    Returns (line, columns, error). `line(i)` is the line number of row i. A
    `str` column is (codes, values): an int64 code per row, and the unescaped
    value of each code, numbered in order of first appearance. An `int` column
    is int64; a `float` or `float | None` column is float64, NaN for an empty
    cell. `error` is None, or the CorpusError that `read_tsv` raises for the
    file; the columns then hold every row before the bad line.
    """
    values = {f.name: {} for f in fields(cls) if f.type == "str"}  # unescaped value -> code
    parts = {  # each column's chunks, after an empty one of its dtype
        f.name: [np.empty(0, np.float64 if f.type.startswith("float") else np.int64)]
        for f in fields(cls)
    }
    chunks: list[Sequence[int]] = []  # each chunk's line numbers
    error = None
    try:
        for numbers, columns in _parse(source, cls, label):
            chunks.append(numbers)
            for f, column in zip(fields(cls), columns):
                if f.type == "str":  # two raw cells may unescape alike (a lone backslash stays)
                    known = values[f.name]
                    codes = {raw: known.setdefault(unescape_field(raw), len(known))
                             for raw in dict.fromkeys(column)}
                    column = np.fromiter(map(codes.__getitem__, column), np.int64, len(column))
                parts[f.name].append(column)
    except CorpusError as exc:
        error = exc

    def line(row: int) -> int:
        for numbers in chunks:
            if row < len(numbers):
                return numbers[row]
            row -= len(numbers)
        raise IndexError("row beyond the rows read")

    # each column's chunks are let go once joined, so at most one column is held twice
    out: dict[str, object] = {name: np.concatenate(parts.pop(name)) for name in list(parts)}
    for name, known in values.items():
        out[name] = (out[name], list(known))
    return line, out, error


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

