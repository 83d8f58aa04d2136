"""Frozen outputs: every command's files must match tests/golden byte for byte.

Two inputs are covered: the tests/fixtures corpus (3 segments x 2
annotators, too small for Williams p-values) and tests/golden/seeded, a
12 segments x 3 annotators corpus with DA made once by perfbench/generate.py
(CorpusSpec(segments=12, annotators=3, len_median=10, len_sigma=0.4,
len_min=4, len_max=20, vocab=200, zipf_s=1.05, sub_rate=0.12, ins_rate=0.05,
del_rate=0.05, move_prob=0.4), seed "golden").

The expected files are the outputs of the code before any refactoring. A
change that alters an output byte is a change of behaviour; only such a
change may rewrite them, with `python tests/test_golden.py`.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from pe_rank.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXTURES = Path(__file__).parent / "fixtures"

# case -> (input directory, one annotator for rank-eval, tails max cut, tails step)
CASES = {
    "fixtures": (FIXTURES, "ANN0", 3, 1),
    "seeded": (GOLDEN / "seeded", "a2", 12, 3),
}


def run_commands(case: str, out: Path) -> None:
    """Run every command on one case's inputs, writing into `out`."""
    inputs, annotator, max_cut, step = CASES[case]
    corpus = ["--segments", str(inputs / "segments.tsv"), "--sessions", str(inputs / "sessions.tsv")]
    scores = ["--scores", str(out / "scores.tsv")]
    commands = [
        ["report", *corpus, "--out-dir", str(out / "report")],
        ["score", *corpus, "--out", str(out / "scores.tsv")],
        ["rank-eval", *scores, "--annotator", "ALL", "--out", str(out / "rank_all.tsv")],
        ["rank-eval", *scores, "--annotator", annotator, "--out", str(out / f"rank_{annotator}.tsv")],
        ["loo", *scores, "--out", str(out / "loo.tsv")],
    ]
    for side in ("best", "worst"):
        commands.append(
            ["tails", *scores, "--side", side, "--max", str(max_cut), "--step", str(step),
             "--out", str(out / f"tails_{side}.tsv")]
        )
    for argv in commands:
        assert main(argv) == 0, argv


def _files(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden(case, tmp_path):
    run_commands(case, tmp_path)
    expected = _files(GOLDEN / case / "expected")
    actual = _files(tmp_path)
    assert sorted(actual) == sorted(expected)
    for name, data in expected.items():
        assert actual[name] == data, name


if __name__ == "__main__":
    import shutil

    for case in CASES:
        target = GOLDEN / case / "expected"
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        run_commands(case, target)
