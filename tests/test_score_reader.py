"""`ScoreViews.read`, the columnar scores reader, against the row-by-row
oracle: the same views for every valid file, the same first error for every
bad one."""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from pe_rank import corpus
from pe_rank.analysis import FLOAT_FIELDS, ScoreViews
from pe_rank.cli import SCORES_HEADER
from pe_rank.corpus import ALL_ANNOTATORS, MINIMUM, CorpusError, escape_field
from pe_rank.taskmetrics import SegmentScores

from mutations import cell_pool, mutated_lines
from oracles import row_score_views

SEEDED = Path(__file__).parent / "golden" / "seeded" / "expected" / "scores.tsv"
NULLABLE = {f.name for f in fields(SegmentScores) if f.type == "float | None"}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("scores") / "scores.tsv"


def _same_views(views: ScoreViews, oracle: dict) -> None:
    assert views.segment_ids == oracle["segment_ids"]
    assert views.annotators == oracle["annotators"]
    assert views.gaps == oracle["gaps"]
    for annotator, columns in oracle["columns"].items():
        for field, expected in columns.items():
            got = views._column(annotator, field)
            assert got.dtype == expected.dtype, (annotator, field)
            assert got.tobytes() == expected.tobytes(), (annotator, field)


def _read_once(path: Path) -> ScoreViews:
    """`ScoreViews.read(path)`, failing unless it parses the file exactly once."""
    parse, calls = corpus._parse, []

    def counted(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_parse", counted)
        try:
            return ScoreViews.read(path)
        finally:
            assert len(calls) == 1, f"{path} parsed {len(calls)} times"


def _outcome(read, path: Path):
    """What `read(path)` returns, or the type and message of what it raises."""
    try:
        return read(path)
    except Exception as exc:  # noqa: BLE001 - every exception is an outcome here
        return type(exc), str(exc)


def _same_outcome(path: Path) -> None:
    """Both readers give equal views, or raise the same exception and message;
    `ScoreViews.read` parses the file once."""
    expected, got = _outcome(row_score_views, path), _outcome(_read_once, path)
    if isinstance(expected, dict):
        _same_views(got, expected)
    else:
        assert got == expected


# ---------------------------------------------------------------------------
# valid files

# Ids hold the characters that are escaped on disk, and non-ASCII ones.
_id = st.text(alphabet="as1\\\t\n\ré\x85\u2028", min_size=1, max_size=4)
# Each value with spellings that `float` reads alike, so the reader must parse
# every cell as `read_tsv` does; few values, so ties are common.
_cell = st.sampled_from(
    ["0.0", "-0.0", "0", "5e-324", "0.1", "1e-1", " 0.1", "+0.3", "1.0", "1", "1_0", "3.5", "1e16"]
)


@st.composite
def _scores_file(draw) -> str:
    """The text of a valid scores file."""
    segments = draw(st.lists(_id, min_size=1, max_size=8, unique=True))
    annotators = draw(st.lists(_id, min_size=1, max_size=3, unique=True)) + [ALL_ANNOTATORS]
    header = draw(st.permutations(SCORES_HEADER))
    da = draw(st.sampled_from(["all", "some", "none"]))
    gappy = draw(st.sampled_from(annotators + [None]))
    rows = []
    for sid in segments:
        tokens = draw(st.sampled_from(["1", "2", "17", " 3", "+4"]))
        da_cell = "" if da == "none" or (da == "some" and draw(st.booleans())) else draw(_cell)
        for annotator in annotators:
            if annotator == gappy and draw(st.booleans()):
                continue
            cells = {"segment_id": escape_field(sid), "annotator_id": escape_field(annotator),
                     "mt_tokens": tokens, "da": da_cell}
            for field in FLOAT_FIELDS:
                if field == "da":
                    continue
                value = draw(_cell)
                if field in MINIMUM and value.startswith("-"):
                    value = value[1:]
                if field in NULLABLE and draw(st.integers(0, 9)) == 0:
                    value = ""
                cells[field] = value
            rows.append("\t".join(cells[c] for c in header))
    lines = ["\t".join(header)] + draw(st.permutations(rows))
    crlf = draw(st.sampled_from(["none", "all", "some"]))
    if crlf != "none":
        lines = [line + "\r" if crlf == "all" or draw(st.booleans()) else line for line in lines]
    blanks = draw(st.lists(st.integers(0, len(lines)), max_size=2))
    for at in sorted(blanks, reverse=True):
        lines.insert(at, draw(st.sampled_from(["", "\r"])))
    end = draw(st.sampled_from(["\n", ""]))
    return "\n".join(lines) + end


@given(_scores_file())
def test_valid_files_give_the_oracles_views_bit_for_bit(scratch, text):
    scratch.write_text(text, encoding="utf-8")
    _same_views(_read_once(scratch), row_score_views(scratch))


def test_cells_that_unescape_alike_are_one_id(scratch):
    header, *rows = SEEDED.read_text(encoding="utf-8").splitlines()
    # a backslash before a character that is no escape code stays, so both
    # spellings of the first segment's id read as `s\0`, and of one annotator's
    # as `a\q`
    rows = [r.replace("s00000\t", "s\\0\t" if i % 2 else "s\\\\0\t", 1) for i, r in enumerate(rows)]
    rows = [r.replace("\ta1\t", "\ta\\q\t" if i % 3 else "\ta\\\\q\t") for i, r in enumerate(rows)]
    scratch.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    views = _read_once(scratch)
    assert "s\\0" in views.segment_ids and len(views.segment_ids) == 12
    assert views.annotators == ["a2", "a3", "a\\q"]
    _same_views(views, row_score_views(scratch))


# ---------------------------------------------------------------------------
# bad files


def _set(lines: list[str], lineno: int, column: str, value: str) -> list[str]:
    header = lines[0].split("\t")
    cells = lines[lineno - 1].split("\t")
    cells[header.index(column)] = value
    return lines[: lineno - 1] + ["\t".join(cells)] + lines[lineno:]


def _drop_column(lines: list[str], column: str) -> list[str]:
    at = lines[0].split("\t").index(column)
    return ["\t".join(c for i, c in enumerate(line.split("\t")) if i != at) for line in lines]


def _only_one_da(lines: list[str], raw: str) -> list[str]:
    """Every da cell empty except line 6's."""
    for lineno in range(2, len(lines) + 1):
        lines = _set(lines, lineno, "da", raw if lineno == 6 else "")
    return lines


FAULTS = {
    "non-numeric float": lambda L: _set(L, 5, "ter", "x"),
    "non-numeric int": lambda L: _set(L, 5, "mt_tokens", "5.0"),
    "empty non-nullable": lambda L: _set(L, 5, "bleu", ""),
    **{
        f"{raw} in {column}": (lambda raw, column: lambda L: _set(L, 4, column, raw))(raw, column)
        for raw in ("nan", "inf", "-inf")
        for column in ("petpw", "da", "ter", "meteor")
    },
    "nan among empty da": lambda L: _only_one_da(L, "nan"),
    "NaN among empty da": lambda L: _only_one_da(L, "NaN"),
    "below minimum": lambda L: _set(L, 7, "pe_time_sec", "-1.5"),
    "mt_tokens 0": lambda L: _set(L, 7, "mt_tokens", "0"),
    "too few fields": lambda L: L[:8] + [L[8].rsplit("\t", 1)[0]] + L[9:],
    "too many fields": lambda L: L[:8] + [L[8] + "\t0.5"] + L[9:],
    "duplicate row": lambda L: L[:10] + [L[3]] + L[10:],
    "mt_tokens mismatch": lambda L: _set(L, 12, "mt_tokens", "99"),
    "missing column": lambda L: _drop_column(L, "hbleu"),
    "unknown column": lambda L: [L[0] + "\textra"] + [line + "\t1" for line in L[1:]],
    "duplicate column": lambda L: [L[0].replace("hbleu", "bleu")] + L[1:],
    "empty file": lambda L: [],
    "stray CR in a number": lambda L: _set(L, 6, "hter", "0.5\r1"),
    "duplicate, then a bad cell": lambda L: _set(L[:5] + [L[2]] + L[5:], 9, "ter", "x"),
    "bad cell, then a duplicate": lambda L: _set(L, 4, "ter", "x") + [L[7]],
    "mismatch, then a wrong field count": lambda L: _set(L[:-1], 3, "mt_tokens", "2") + [L[-1] + "\t"],
    "below minimum, then nan": lambda L: _set(_set(L, 9, "petpw", "nan"), 5, "keys_per_char", "-1"),
    "blank lines, then a duplicate": lambda L: L[:3] + ["", ""] + L[3:] + [L[4]],
    # line 3 alone fills the first chunk, so the duplicate's line is in the second
    "a duplicate in a later chunk": lambda L: (
        _set(L, 3, "segment_id", "s" * corpus._CHUNK_BYTES) + [L[5]]
    ),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_planted_fault_raises_as_the_oracle(scratch, fault):
    lines = FAULTS[fault](SEEDED.read_text(encoding="utf-8").splitlines())
    scratch.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    _same_outcome(scratch)
    with pytest.raises(CorpusError, match="^scores: "):
        ScoreViews.read(scratch)


_SEEDED_LINES = SEEDED.read_text(encoding="utf-8").splitlines()


# 64 bytes puts each line in a chunk of its own, 300 two or three lines
@pytest.mark.parametrize("chunk_bytes", [64, 300, corpus._CHUNK_BYTES])
@given(mutated_lines(_SEEDED_LINES, cell_pool(_SEEDED_LINES, 2)))
def test_mutated_file_reads_as_by_the_oracle(scratch, chunk_bytes, lines):
    scratch.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_CHUNK_BYTES", chunk_bytes)
        _same_outcome(scratch)


def _id_last(lines: list[str]) -> list[str]:
    """The annotator_id column moved to the end of every line."""
    moved = []
    for line in lines:
        sid, annotator, rest = line.split("\t", 2)
        moved.append(f"{sid}\t{rest}\t{annotator}")
    return moved


# Valid files that look odd: each must give the oracle's views.
ODD = {
    "header only": lambda L: L[:1],
    "CR ending a number": lambda L: _set(L, 6, "hter", "0.5\r"),
    "CR inside an id": lambda L: _set(L, 6, "annotator_id", "a\r1"),
    "CRLF on data lines, an id last": lambda L: [
        line + "\r" if i % 2 else line for i, line in enumerate(_id_last(L))
    ],
    "blank lines": lambda L: ["", L[0], "", *L[1:5], "", "", *L[5:]],
}


@pytest.mark.parametrize("case", ODD)
def test_odd_valid_file_gives_the_oracles_views(scratch, case):
    lines = ODD[case](SEEDED.read_text(encoding="utf-8").splitlines())
    scratch.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    _same_views(_read_once(scratch), row_score_views(scratch))


def test_first_fault_in_file_order_is_named(scratch):
    lines = SEEDED.read_text(encoding="utf-8").splitlines()
    lines = _set(_set(lines, 20, "ter", "x"), 8, "mt_tokens", "0")
    scratch.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="^scores: line 8: mt_tokens '0' below minimum 1$"):
        ScoreViews.read(scratch)



@pytest.mark.parametrize("at", [30, 2000])  # in the header, in a data row
def test_undecodable_byte_raises_as_the_oracle(scratch, at):
    data = SEEDED.read_bytes()
    scratch.write_bytes(data[:at] + b"\xff" + data[at:])
    line = data[:at].count(b"\n") + 1
    with pytest.raises(CorpusError, match=f"^scores: line {line}: 'utf-8' codec can't decode byte 0xff"):
        ScoreViews.read(scratch)
    _same_outcome(scratch)


@pytest.mark.parametrize("chunk_bytes", [64, corpus._CHUNK_BYTES])
def test_undecodable_byte_does_not_hide_an_earlier_duplicate(scratch, chunk_bytes):
    # the seeded rows under 27 sets of segment ids: one default chunk of ~208 KB
    header, *rows = _SEEDED_LINES
    lines = [header] + [f"c{k}{row}" for k in range(27) for row in rows]
    data = "".join(line + "\n" for line in lines[:3] + lines[2:]).encode()
    assert 200_000 < len(data) < corpus._CHUNK_BYTES
    scratch.write_bytes(data[:-100] + b"\xff" + data[-100:])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_CHUNK_BYTES", chunk_bytes)
        _same_outcome(scratch)
        with pytest.raises(CorpusError, match="^scores: line 4: duplicate row for segment 'c0s"):
            ScoreViews.read(scratch)
