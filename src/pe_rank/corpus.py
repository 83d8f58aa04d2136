"""Loading, validation, and tokenization of post-editing evaluation corpora.

A corpus couples translation segments (source, MT output, independent
reference, optional DA score) with post-editing sessions (the PE'ed text, the
seconds it took, and the keystrokes pressed). Both sides arrive as UTF-8
tab-separated files; text fields are escaped so they never contain raw tabs
or newlines on disk. `read_tsv` and `format_tsv` are the package's only TSV
reader and writer; the scores file goes through them too, and through
`read_tsv_columns`, which reads a file as `read_tsv` does but column by column.
"""

from __future__ import annotations

import math
import re
import unicodedata
from dataclasses import dataclass, fields
from itertools import compress, repeat
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


def escape_field(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE_CODE = re.compile(r"\\([\\tnr])")


def unescape_field(value: str) -> str:
    """Inverse of escape_field; a backslash before any other character stays."""
    if "\\" not in value:
        return value
    return _ESCAPE_CODE.sub(lambda m: _UNESCAPES[m[1]], value)


# Smallest value of a numeric column, in any file that has it: a segment has at
# least one MT word, and no time, keystroke count, PETpW or keystroke rate is
# negative.
MINIMUM = {"mt_tokens": 1, "keystrokes": 0, "pe_time_sec": 0.0, "petpw": 0.0, "keys_per_char": 0.0}


def _cell_parser(column: str, annotation: str) -> Callable[[str], object]:
    """Parser of one column's cells, chosen by its dataclass field annotation.

    `str` cells are unescaped; `int`, `float` and `float | None` cells must be
    finite numbers no smaller than the column's MINIMUM, and an empty
    `float | None` cell is None. Raises ValueError naming the column.
    """
    if annotation == "str":
        return unescape_field
    number = {"int": int, "float": float, "float | None": float}[annotation]
    nullable = annotation == "float | None"
    minimum = MINIMUM.get(column)

    def parse(raw: str):
        if nullable and raw == "":
            return None
        try:
            value = number(raw)
        except ValueError:
            raise ValueError(f"non-numeric {column} {raw!r}") from None
        if number is float and not math.isfinite(value):
            raise ValueError(f"non-finite {column} {raw!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"{column} {raw!r} below minimum {minimum}")
        return value

    return parse


def _cell_indices(
    header: Sequence[str], cls: type, label: str, optional: Sequence[str] = ()
) -> list[int | None]:
    """The header's cell index of each field of `cls`, None for an absent optional one.

    Raises CorpusError naming `label` for a duplicate, missing or unexpected column.
    """
    seen: set[str] = set()
    for col in header:
        if col in seen:
            raise CorpusError(f"{label}: duplicate column '{col}'")
        seen.add(col)
    for f in fields(cls):
        if f.name not in seen and f.name not in optional:
            raise CorpusError(f"{label}: missing required column '{f.name}'")
    known = {f.name for f in fields(cls)}
    for col in header:
        if col not in known:
            raise CorpusError(f"{label}: unexpected column '{col}'")
    return [header.index(f.name) if f.name in seen else None for f in fields(cls)]


def _lines(source: str | Path | Iterable[str]) -> Iterator[str]:
    """Lines without their LF and one trailing CR, read one at a time."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", newline="\n") as fh:
            yield from _lines(fh)
    else:
        for raw in source:
            yield raw.removesuffix("\n").removesuffix("\r")


def read_tsv(
    source: str | Path | Iterable[str],
    cls: type[T],
    label: str,
    optional: Sequence[str] = (),
) -> Iterator[tuple[int, T]]:
    """Yield (line number, cls instance) for each data row of a TSV file.

    The first non-blank line is the header: one column per field of the
    dataclass `cls`, in any order; a column named in `optional` may be absent
    and then reads as empty cells. Blank lines are skipped but counted, so the
    line number of every error is the line in the file. Raises CorpusError
    naming `label`, and the line for a bad row.
    """
    lines = enumerate(_lines(source), start=1)
    header = next((line.split("\t") for _, line in lines if line), None)
    if header is None:
        raise CorpusError(f"{label}: empty input (header row required)")
    plan = [  # (cell index, or None for an absent column; parser), in field order
        (index, _cell_parser(f.name, f.type))
        for f, index in zip(fields(cls), _cell_indices(header, cls, label, optional))
    ]
    for lineno, line in lines:
        if not line:
            continue
        cells = line.split("\t")
        if len(cells) != len(header):
            raise CorpusError(
                f"{label}: line {lineno}: expected {len(header)} fields, got {len(cells)}"
            )
        try:
            row = cls(*[parse("" if i is None else cells[i]) for i, parse in plan])
        except ValueError as exc:
            raise CorpusError(f"{label}: line {lineno}: {exc}") from None
        yield lineno, row


# Bytes read per chunk by `read_tsv_columns`: the split cells of one chunk are
# a few MB of str objects, whatever the file's size.
_CHUNK_BYTES = 1 << 18


def read_tsv_columns(path: str | Path, cls: type, label: str) -> dict[str, object] | None:
    """The data rows of a TSV file as one column per field of `cls`, or None.

    A `str` column is (codes, values): an int64 code per row, and the
    unescaped value of each code, numbered in order of first appearance. An
    `int` column is int64; a `float` or `float | None` column is float64, NaN
    for an empty cell.

    The same rules as `read_tsv`, checked on whole columns. A bad header
    raises as there. A file that breaks any other rule, has no data row, or
    has a blank line or a CR anywhere gives None: the caller reads it with
    `read_tsv` instead, which accepts it or names its first bad line.
    """
    with open(path, encoding="utf-8", newline="\n") as fh:
        first = fh.readline().removesuffix("\n")
        if not first or "\r" in first:
            return None
        header = first.split("\t")
        width = len(header)
        plan = list(zip(fields(cls), _cell_indices(header, cls, label)))
        codes: dict[str, dict[str, int]] = {}  # str column -> raw cell -> code
        values: dict[str, dict[str, int]] = {}  # str column -> unescaped value -> code
        parts: dict[str, list[np.ndarray]] = {f.name: [] for f in fields(cls)}
        while lines := fh.readlines(_CHUNK_BYTES):
            text = "".join(lines)
            if "\r" in text:
                return None
            rows = text.removesuffix("\n").split("\n")
            if "" in rows or set(map(str.count, rows, repeat("\t"))) != {width - 1}:
                return None
            cells = "\t".join(rows).split("\t")
            for f, index in plan:
                column = cells[index::width]
                if f.type == "str":
                    parts[f.name].append(
                        _codes(column, codes.setdefault(f.name, {}), values.setdefault(f.name, {}))
                    )
                elif (numbers := _numbers(column, f.name, f.type)) is not None:
                    parts[f.name].append(numbers)
                else:
                    return None
    if not parts[plan[0][0].name]:
        return None
    out: dict[str, object] = {name: np.concatenate(chunks) for name, chunks in parts.items()}
    for name, known in values.items():
        out[name] = (out[name], list(known))
    return out


def _codes(cells: list[str], codes: dict[str, int], values: dict[str, int]) -> np.ndarray:
    """The code of each cell, adding unseen cells to `codes` and their values to `values`.

    Two raw cells may unescape to one value (a lone backslash stays), and then
    share its code.
    """
    for raw in dict.fromkeys(cells):
        if raw not in codes:
            codes[raw] = values.setdefault(unescape_field(raw), len(values))
    return np.fromiter(map(codes.__getitem__, cells), dtype=np.int64, count=len(cells))


def _numbers(cells: list[str], column: str, annotation: str) -> np.ndarray | None:
    """One numeric column's cells as an array, or None if a cell breaks `_cell_parser`'s rule."""
    number, dtype = (int, np.int64) if annotation == "int" else (float, np.float64)
    present = None  # mask of the non-empty cells, where a cell may be empty
    if annotation == "float | None" and "" in cells:
        present = np.fromiter(map(bool, cells), dtype=bool, count=len(cells))
        cells = list(compress(cells, present))
    try:
        parsed = np.fromiter(map(number, cells), dtype=dtype, count=len(cells))
    except (ValueError, OverflowError):
        return None
    minimum = MINIMUM.get(column)
    if number is float and not np.isfinite(parsed).all():
        return None
    if minimum is not None and (parsed < minimum).any():
        return None
    if present is None:
        return parsed
    full = np.full(len(present), np.nan)
    full[present] = parsed
    return full


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
    if isinstance(value, float):
        return repr(value)
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
    for lineno, seg in read_tsv(segments_source, Segment, "segments", optional=("da",)):
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
    for seg in corpus.segments:
        for annotator in sorted(corpus.annotators):
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


def serialize_segments(corpus: Corpus) -> str:
    """Render segments as TSV text; inverse of the loader, field-exact."""
    return format_tsv([f.name for f in fields(Segment)], map(vars, corpus.segments))


def serialize_sessions(corpus: Corpus) -> str:
    return format_tsv([f.name for f in fields(PESession)], map(vars, corpus.sessions))


def write_corpus(corpus: Corpus, segments_path: str | Path, sessions_path: str | Path) -> None:
    Path(segments_path).write_text(serialize_segments(corpus), encoding="utf-8")
    Path(sessions_path).write_text(serialize_sessions(corpus), encoding="utf-8")
