"""Input checks of scores files: bad cells and rows fail by line, with exit 1."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from pe_rank.cli import main, read_scores
from pe_rank.corpus import CorpusError

COMMANDS = (
    ["rank-eval", "--annotator", "ALL", "--out", "rank.tsv"],
    ["loo", "--out", "loo.tsv"],
    ["tails", "--side", "best", "--max", "3", "--step", "1", "--out", "tails.tsv"],
)


def _scores(tmp_path: Path, fixture_paths) -> tuple[Path, list[str]]:
    path = tmp_path / "scores.tsv"
    argv = ["score", "--segments", str(fixture_paths[0]), "--sessions", str(fixture_paths[1])]
    assert main(argv + ["--out", str(path)]) == 0
    return path, path.read_text(encoding="utf-8").splitlines()


def _set_cell(lines: list[str], lineno: int, column: str, value: str) -> list[str]:
    header = lines[0].split("\t")
    cells = lines[lineno - 1].split("\t")
    cells[header.index(column)] = value
    return lines[: lineno - 1] + ["\t".join(cells)] + lines[lineno:]


def _run(tmp_path: Path, path: Path, argv: list[str]) -> int:
    args = argv[:1] + ["--scores", str(path)] + argv[1:]
    args[-1] = str(tmp_path / args[-1])
    return main(args)


@pytest.mark.parametrize("column", ["ter", "petpw", "hbleu", "da"])
@pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "Infinity"])
def test_non_finite_cell_fails_naming_line_and_column(tmp_path, fixture_paths, capsys, column, raw):
    path, lines = _scores(tmp_path, fixture_paths)
    path.write_text("\n".join(_set_cell(lines, 3, column, raw)) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"line 3: non-finite {column}"):
        read_scores(path)
    for argv in COMMANDS:
        assert _run(tmp_path, path, argv) == 1, argv
        err = capsys.readouterr().err
        assert "line 3" in err and column in err


@pytest.mark.parametrize(
    "column, raw",
    [
        ("mt_tokens", "0"),
        ("mt_tokens", "-2"),
        ("pe_time_sec", "-1.0"),
        ("petpw", "-1.0"),
        ("keys_per_char", "-0.25"),
    ],
)
def test_out_of_range_cell_fails_naming_line_and_column(tmp_path, fixture_paths, capsys, column, raw):
    path, lines = _scores(tmp_path, fixture_paths)
    assert lines[1].startswith("s1\tANN0")
    path.write_text("\n".join(_set_cell(lines, 2, column, raw)) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"line 2: {column} '{raw}' below minimum"):
        read_scores(path)
    for argv in COMMANDS + (["rank-eval", "--annotator", "ANN0", "--out", "rank0.tsv"],):
        assert _run(tmp_path, path, argv) == 1, argv
        err = capsys.readouterr().err
        assert "line 2" in err and column in err


BEYOND_INT64 = "99999999999999999999"


def test_int_beyond_int64_fails_naming_line_and_maximum(tmp_path, fixture_paths, capsys):
    path, lines = _scores(tmp_path, fixture_paths)
    for lineno in range(2, len(lines) + 1):  # every row of s1, so its rows agree
        if lines[lineno - 1].startswith("s1\t"):
            lines = _set_cell(lines, lineno, "mt_tokens", BEYOND_INT64)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = f"scores: line 2: mt_tokens '{BEYOND_INT64}' above maximum 9223372036854775807"
    with pytest.raises(CorpusError, match=f"^{message}$"):
        read_scores(path)
    for argv in COMMANDS:
        assert _run(tmp_path, path, argv) == 1, argv
        assert capsys.readouterr().err == f"error: {message}\n"

    sessions = tmp_path / "sessions.tsv"
    lines = fixture_paths[1].read_text(encoding="utf-8").splitlines()
    lines = _set_cell(lines, 3, "keystrokes", BEYOND_INT64)
    sessions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["score", "--segments", str(fixture_paths[0]), "--sessions", str(sessions)]
    assert main(argv + ["--out", str(tmp_path / "out.tsv")]) == 1
    assert capsys.readouterr().err == (
        f"error: sessions: line 3: keystrokes '{BEYOND_INT64}' above maximum 9223372036854775807\n"
    )


def test_duplicate_row_fails_naming_line(tmp_path, fixture_paths, capsys):
    path, lines = _scores(tmp_path, fixture_paths)
    lines.append(lines[4])  # s2 ANN0 again, as line 11
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 11: duplicate row for segment 's2', annotator 'ANN0'"):
        read_scores(path)
    for argv in COMMANDS:
        assert _run(tmp_path, path, argv) == 1, argv
        assert "line 11" in capsys.readouterr().err


def test_gap_in_one_annotator_fails_only_views_that_need_it(tmp_path, fixture_paths, capsys):
    path, lines = _scores(tmp_path, fixture_paths)
    assert lines[3].startswith("s1\tALL")
    del lines[2]  # s1 ANN1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _run(tmp_path, path, ["rank-eval", "--annotator", "ALL", "--out", "all.tsv"]) == 0
    assert _run(tmp_path, path, ["rank-eval", "--annotator", "ANN0", "--out", "a0.tsv"]) == 0
    assert _run(tmp_path, path, ["rank-eval", "--annotator", "ANN1", "--out", "a1.tsv"]) == 1
    assert "annotator 'ANN1': missing segment 's1'" in capsys.readouterr().err
    assert _run(tmp_path, path, ["loo", "--out", "loo.tsv"]) == 1


def test_line_numbers_count_blank_lines(tmp_path, fixture_paths):
    path, lines = _scores(tmp_path, fixture_paths)
    lines = _set_cell(lines, 5, "ter", "x")
    path.write_text("\n".join(lines[:2] + ["", ""] + lines[2:]) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 7: non-numeric ter"):
        read_scores(path)


def test_mt_tokens_differing_within_a_segment_fails_naming_line(tmp_path, fixture_paths, capsys):
    path, lines = _scores(tmp_path, fixture_paths)
    assert lines[2].startswith("s1\tANN1\t5\t")
    path.write_text("\n".join(_set_cell(lines, 3, "mt_tokens", "6")) + "\n", encoding="utf-8")
    message = "line 3: mt_tokens 6 for segment 's1' differs from 5 on an earlier row"
    with pytest.raises(CorpusError, match=message):
        read_scores(path)
    for argv in COMMANDS:
        assert _run(tmp_path, path, argv) == 1, argv
        assert message in capsys.readouterr().err


def test_gap_error_counts_the_other_missing_segments(tmp_path, fixture_paths, capsys):
    path, lines = _scores(tmp_path, fixture_paths)
    kept = [line for line in lines if not line.startswith(("s1\tANN1", "s3\tANN1"))]
    assert len(kept) == len(lines) - 2
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")
    assert _run(tmp_path, path, ["rank-eval", "--annotator", "ANN1", "--out", "a1.tsv"]) == 1
    err = capsys.readouterr().err
    assert "scores incomplete for annotator 'ANN1': missing segment 's1' (and 1 more)" in err


def test_row_order_does_not_change_any_output(tmp_path):
    seeded = Path(__file__).parent / "golden" / "seeded" / "expected" / "scores.tsv"
    header, *rows = seeded.read_text(encoding="utf-8").splitlines()
    all_rows = [r for r in rows if r.split("\t")[1] == "ALL"]
    annotator_rows = [r for r in rows if r.split("\t")[1] != "ALL"]
    random.Random(0).shuffle(annotator_rows)  # annotators interleaved
    shuffled = tmp_path / "shuffled.tsv"
    shuffled.write_text("\n".join([header] + all_rows[::-1] + annotator_rows) + "\n", encoding="utf-8")
    commands = (
        ["rank-eval", "--annotator", "ALL", "--out", "rank_all.tsv"],
        ["rank-eval", "--annotator", "a2", "--out", "rank_a2.tsv"],
        ["loo", "--out", "loo.tsv"],
        ["tails", "--side", "best", "--max", "12", "--step", "3", "--out", "best.tsv"],
        ["tails", "--side", "worst", "--max", "12", "--step", "3", "--out", "worst.tsv"],
    )
    outputs = {}
    for name, path in (("sorted", seeded), ("shuffled", shuffled)):
        (tmp_path / name).mkdir()
        for argv in commands:
            assert _run(tmp_path, path, argv[:-1] + [f"{name}/{argv[-1]}"]) == 0, argv
        outputs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert len(outputs["sorted"]) == len(commands) + 2  # and the two Williams tables
    assert outputs["shuffled"] == outputs["sorted"]
