"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass. Every expected value is either forced by a stated rule,
derived from an independent oracle in `oracles.py`, or frozen from an
independent statistical package before this package was written.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from pe_rank.cli import main
from pe_rank.rankeval import satra, spearman
from pe_rank.stats import ks_two_sample, williams_test
from pe_rank.textmetrics import ter, word_edit_distance

from oracles import (
    brute_force_min_satra,
    exhaustive_shift_min,
    rank_pearson,
    satra_directly,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _ok(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


def test_criterion_1_ter_sandwich():
    """oracle <= greedy TER <= edit distance on random instances; greedy ==
    oracle on constructed single-shift cases."""
    rng = random.Random(1001)
    vocab = "abcd"
    checked = 0
    for _ in range(500):
        hyp = [rng.choice(vocab) for _ in range(rng.randint(0, 6))]
        ref = [rng.choice(vocab) for _ in range(rng.randint(1, 6))]
        greedy = ter(hyp, ref).edits
        oracle = exhaustive_shift_min(hyp, ref)
        distance = word_edit_distance(hyp, ref)
        assert oracle <= greedy <= distance, (hyp, ref)
        checked += 1
    assert checked == 500

    # single displaced block over distinct tokens: exactly one shift repairs it
    big_vocab = [f"w{i}" for i in range(30)]
    singles = 0
    for _ in range(60):
        n = rng.randint(4, 8)
        ref = rng.sample(big_vocab, n)
        length = rng.randint(1, 3)
        start = rng.randrange(0, n - length + 1)
        block = ref[start : start + length]
        rest = ref[:start] + ref[start + length :]
        dest = rng.randrange(0, len(rest) + 1)
        hyp = rest[:dest] + block + rest[dest:]
        oracle = exhaustive_shift_min(hyp, ref)
        assert ter(hyp, ref).edits == oracle
        if hyp != ref:
            assert oracle == 1
            singles += 1
    assert singles >= 30
    assert ter(["a", "c", "b", "d"], ["a", "b", "c", "d"]).edits == 1
    _ok("1 TER sandwich: oracle <= greedy <= edit distance on 500 instances; "
        f"greedy == oracle on {singles} single-shift constructions")


def test_criterion_2_satra_optimality():
    """Ascending-PETpW ranking attains the brute-force minimum on 200 random
    instances (per-instance constant segment length; see decisions ledger)."""
    rng = random.Random(2002)
    for trial in range(200):
        n = rng.randint(2, 7)
        length = rng.randint(1, 9)
        lengths = [length] * n
        times = [float(rng.randint(1, 12)) for _ in range(n)]
        order = sorted(range(n), key=lambda i: (times[i] / lengths[i], i))
        sorted_score = satra([times[i] for i in order], [lengths[i] for i in order])
        best = brute_force_min_satra(times, lengths)
        assert sorted_score <= best + 1e-12, (trial, times, lengths)
    _ok("2 SATRA optimality: ascending-PETpW ranking attains the exact "
        "brute-force minimum on 200/200 instances")


def test_criterion_3_satra_random_ranking_calibration():
    """Mean SATRA of uniformly random rankings sits near 1."""
    rng = random.Random(3003)
    n = 100
    lengths = [rng.randint(5, 40) for _ in range(n)]
    times = [l * rng.uniform(0.5, 8.0) for l in lengths]
    idx = list(range(n))
    total = 0.0
    trials = 2000
    for _ in range(trials):
        rng.shuffle(idx)
        total += satra_directly([times[i] for i in idx], [lengths[i] for i in idx])
    mean = total / trials
    assert 0.85 <= mean <= 1.20, mean
    _ok(f"3 SATRA calibration: mean over 2000 random rankings = {mean:.4f} in [0.85, 1.20]")


def test_criterion_4_spearman_equals_rank_pearson():
    rng = random.Random(4004)
    for _ in range(200):
        n = rng.randint(3, 40)
        # draw from a small value pool so ties are frequent
        x = [float(rng.randint(0, 6)) for _ in range(n)]
        y = [float(rng.randint(0, 6)) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert spearman(x, y) == pytest.approx(rank_pearson(x, y), abs=1e-12)
    ordered = [1.0, 2.0, 5.0, 9.0, 12.0]
    assert spearman(ordered, ordered) == pytest.approx(1.0, abs=1e-12)
    assert spearman(ordered, list(reversed(ordered))) == pytest.approx(-1.0, abs=1e-12)
    _ok("4 Spearman == rank-transform Pearson to 1e-12 on 200 tied vectors; "
        "perfect/reversed orders give +/-1")


WILLIAMS_ORACLE = [
    # (r12, r13, r23, n) -> (t, p) frozen from an independent package pre-build
    ((0.5, 0.8, 0.6, 100), 3.3454500348104728, 0.0005846841843015046),
    ((0.2, 0.45, 0.35, 1047), 2.9116450104116303, 0.0018358860660681086),
    ((0.8, 0.3, 0.55, 40), -2.9939505716443255, 0.9975565517922212),
]


def test_criterion_5_williams():
    null = williams_test(0.37, 0.52, 0.52, 64)
    assert null.t_stat == 0.0
    assert null.p_one_tailed == 0.5
    fwd = williams_test(0.4, 0.7, 0.5, 90)
    rev = williams_test(0.4, 0.5, 0.7, 90)
    assert fwd.t_stat == pytest.approx(-rev.t_stat, abs=1e-12)
    assert fwd.p_one_tailed == pytest.approx(1.0 - rev.p_one_tailed, abs=1e-9)
    for (r12, r13, r23, n), t_expected, p_expected in WILLIAMS_ORACLE:
        result = williams_test(r12, r13, r23, n)
        assert result.t_stat == pytest.approx(t_expected, abs=1e-6)
        assert result.p_one_tailed == pytest.approx(p_expected, abs=1e-6)
    _ok("5 Williams: t=0/p=0.5 at equal correlations, antisymmetric, and "
        "3 frozen oracle cases match to 1e-6")


def test_criterion_6_ks():
    same = ks_two_sample([0.3, 1.1, 2.4, 5.0], [0.3, 1.1, 2.4, 5.0])
    assert same.d_stat == 0.0
    assert same.p_value == 1.0
    apart = ks_two_sample([1.0, 2.0, 3.0], [10.0, 11.0])
    assert apart.d_stat == 1.0
    a, b = [0.5, 3.5, 9.0], [1.0, 4.0]
    assert ks_two_sample(a, b) == ks_two_sample(b, a)
    interleaved = ks_two_sample([1.0, 3.0], [2.0, 4.0])
    assert interleaved.d_stat == 0.5
    _ok("6 KS: identical -> (0, 1), disjoint -> D=1, symmetric, "
        "interleaved D == 0.5 exactly")


def test_criterion_7_report_determinism(tmp_path):
    segments = str(FIXTURES / "segments.tsv")
    sessions = str(FIXTURES / "sessions.tsv")
    out_dirs = [tmp_path / "run1", tmp_path / "run2"]
    for out_dir in out_dirs:
        code = main(
            ["report", "--segments", segments, "--sessions", sessions, "--out-dir", str(out_dir)]
        )
        assert code == 0
    names = sorted(p.name for p in out_dirs[0].iterdir())
    assert names == sorted(p.name for p in out_dirs[1].iterdir())
    for name in names:
        first = (out_dirs[0] / name).read_bytes()
        second = (out_dirs[1] / name).read_bytes()
        assert first == second, f"{name} differs between runs"
    report = json.loads((out_dirs[0] / "report.json").read_text(encoding="utf-8"))
    for key in ("stats_tables", "ranking_table", "loo_table", "tails", "clusters"):
        assert key in report
    _ok(f"7 report determinism: {len(names)} output files byte-identical across reruns")
