from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from pe_rank.rankeval import (
    Polarity,
    effort_oriented,
    fractional_ranks,
    rank_by,
    ranking,
    satra,
    spearman,
    tail_overlap,
)

from oracles import (
    satra_directly,
    satra_loop,
    signed_key_ranking,
    tie_loop_fractional_ranks,
)

HIGHER = Polarity.HIGHER_IS_MORE_EFFORT
LOWER = Polarity.LOWER_IS_MORE_EFFORT


# ---------------------------------------------------------------------------
# rank_by


def test_rank_by_ascending_effort():
    assert rank_by({"s1": 0.3, "s2": 0.1, "s3": 0.2}, HIGHER) == ["s2", "s3", "s1"]


def test_rank_by_tie_break_on_id():
    assert rank_by({"s2": 1.0, "s1": 1.0}, HIGHER) == ["s1", "s2"]


def test_rank_by_negates_quality_metrics():
    assert rank_by({"s1": 0.9, "s2": 0.1}, LOWER) == ["s1", "s2"]


def test_rank_by_rejects_nan():
    with pytest.raises(ValueError, match="'s2'"):
        rank_by({"s1": 0.1, "s2": float("nan")}, HIGHER)


@given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=12, unique=True))
def test_rank_by_invariant_under_increasing_transform(values):
    # integer inputs keep atan strictly increasing after rounding
    ids = [f"s{i}" for i in range(len(values))]
    plain = rank_by(dict(zip(ids, map(float, values))), HIGHER)
    squashed = rank_by(
        {sid: math.atan(v / 100) + 3 for sid, v in zip(ids, values)}, HIGHER
    )
    assert plain == squashed


# ---------------------------------------------------------------------------
# spearman


def test_spearman_identity_and_reverse():
    x = [3.0, 1.0, 2.0, 5.0]
    assert spearman(x, x) == pytest.approx(1.0)
    ranks_reversed = [-v for v in x]
    assert spearman(x, ranks_reversed) == pytest.approx(-1.0)


def test_spearman_with_ties_matches_hand_value():
    assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(
        0.9486832980505139, abs=1e-12
    )


def test_spearman_constant_vector_errors():
    with pytest.raises(ValueError, match="undefined correlation"):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_spearman_needs_three_points():
    with pytest.raises(ValueError):
        spearman([1.0, 2.0], [2.0, 1.0])


@given(
    st.lists(
        st.floats(-50, 50).map(lambda v: round(v, 6)), min_size=3, max_size=30
    ),
    st.floats(0.5, 10),
    st.floats(-5, 5),
    st.floats(0.5, 10),
    st.floats(-5, 5),
)
def test_spearman_monotone_transform_invariance(x, a, b, c, d):
    # coarse value grid: positive scaling cannot merge or split ties
    y = [v * 0.5 + math.sin(v) * 0.01 for v in x]
    try:
        base = spearman(x, y)
    except ValueError:
        return  # constant vector; nothing to compare
    scaled = spearman([a * v + b for v in x], [c * w + d for w in y])
    assert scaled == pytest.approx(base, abs=1e-12)


# ---------------------------------------------------------------------------
# satra


def test_satra_easy_first():
    assert satra([1.0, 2.0], [1, 1]) == pytest.approx(0.5)


def test_satra_hard_first():
    assert satra([2.0, 1.0], [1, 1]) == pytest.approx(2.0)


def test_satra_uniform_petpw_is_one():
    # times proportional to lengths: every split ratio is exactly 1
    assert satra([2.0, 6.0, 4.0], [1, 3, 2]) == pytest.approx(1.0)


def test_satra_rejects_small_instances():
    with pytest.raises(ValueError):
        satra((1.0,), (1,))


def test_satra_zero_time_suffix():
    with pytest.raises(ValueError, match="degenerate times"):
        satra([1.0, 0.0], [1, 1])


def test_rank_instance_validation():
    with pytest.raises(ValueError, match="positive"):
        satra((1.0, 2.0), (0, 1))


def test_satra_rejects_unequal_lengths_and_negative_times():
    with pytest.raises(ValueError, match="equal length"):
        satra((1.0, 2.0), (1, 1, 1))
    with pytest.raises(ValueError, match="non-negative"):
        satra((1.0, -2.0), (1, 1))


@given(
    st.lists(st.integers(1, 9), min_size=2, max_size=7),
    st.integers(1, 9),
)
def test_satra_matches_direct_formula(times, length):
    lengths = [length] * len(times)
    assert satra([float(t) for t in times], lengths) == pytest.approx(
        satra_directly(times, lengths), abs=1e-12
    )


# ---------------------------------------------------------------------------
# tail_overlap


def test_tail_overlap_identical_rankings():
    ranking = [f"s{i}" for i in range(100)]
    assert tail_overlap(ranking, ranking, [50]) == [50]


def test_tail_overlap_disjoint_halves():
    ranking = [f"s{i:03d}" for i in range(100)]
    assert tail_overlap(ranking, list(reversed(ranking)), [50]) == [0]


def test_tail_overlap_mismatched_ids():
    with pytest.raises(ValueError):
        tail_overlap(["a", "b"], ["a", "c"], [1])


def test_tail_overlap_cut_beyond_n():
    with pytest.raises(ValueError):
        tail_overlap(["a", "b"], ["b", "a"], [3])


def test_tail_overlap_random_rankings_hypergeometric_mean():
    rng = random.Random(4242)
    n, cut = 1000, 500
    base = [f"s{i}" for i in range(n)]
    total = 0
    trials = 100
    for _ in range(trials):
        left = base[:]
        right = base[:]
        rng.shuffle(left)
        rng.shuffle(right)
        total += tail_overlap(left, right, [cut])[0]
    assert abs(total / trials - 250) <= 30


# ---------------------------------------------------------------------------
# differential oracles for the numpy ranking

# few distinct values, so lists are full of ties; signed zeros and subnormals
# must tie or order exactly as the loop and the sort key did
_TIE_HEAVY = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1e300, math.inf, -math.inf]
) | st.floats(allow_nan=False)


@given(st.lists(_TIE_HEAVY, max_size=12))
def test_fractional_ranks_match_tie_loop_bit_for_bit(values):
    assert fractional_ranks(values).tobytes() == tie_loop_fractional_ranks(values).tobytes()


@given(st.lists(_TIE_HEAVY, max_size=12))
def test_ranking_is_one_stable_sort_with_tie_loop_ranks(values):
    order, ranks = ranking(values)
    assert order.tolist() == np.argsort(values, kind="stable").tolist()
    assert ranks.tobytes() == tie_loop_fractional_ranks(values).tobytes()


@given(
    st.dictionaries(st.text(max_size=3), _TIE_HEAVY, min_size=1, max_size=12),
    st.sampled_from(list(Polarity)),
)
def test_rank_by_matches_signed_sort_key(values, polarity):
    expected = signed_key_ranking(values, polarity is HIGHER)
    assert rank_by(values, polarity) == expected


def test_effort_order_keeps_position_order_on_ties():
    values = [0.5, -0.0, 0.5, 0.0]
    assert ranking(effort_oriented(values, HIGHER))[0].tolist() == [1, 3, 0, 2]
    assert ranking(effort_oriented(values, LOWER))[0].tolist() == [0, 2, 1, 3]


def test_effort_oriented_is_float64_and_negates_signed_zero():
    higher = effort_oriented([0.0, 2], HIGHER)
    lower = effort_oriented(np.array([0.0, 2.0]), LOWER)
    assert higher.dtype == lower.dtype == np.float64
    assert higher.tobytes() == np.array([0.0, 2.0]).tobytes()
    assert lower.tobytes() == np.array([-0.0, -2.0]).tobytes()


def test_spearman_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        spearman([1, math.nan, 3, 2], [1, 2, 3, 4])
    with pytest.raises(ValueError, match="NaN"):
        spearman([1, 2, 3, 4], [1, 2, math.nan, 4])


# Times in ranked order: a few distinct values per case, so ties are heavy;
# signed zeros, subnormals, lognormal spreads and values whose sums overflow.
_TIME = st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 1.0, 3.0, 1e308]) | st.randoms(
    use_true_random=False
).map(lambda rng: rng.lognormvariate(0.0, 2.0))


@st.composite
def _ranked_times_and_lengths(draw) -> tuple[list[float], list[int]]:
    n = draw(st.integers(2, 40))
    pool = draw(st.lists(_TIME, min_size=1, max_size=4))
    times = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    lengths = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
    return times, lengths


@given(_ranked_times_and_lengths())
def test_satra_matches_loop_bit_for_bit(case):
    _satra_as_loop(*case)


@given(_ranked_times_and_lengths())
def test_satra_lengths_summing_past_int64_match_loop_bit_for_bit(case):
    times, lengths = case
    lengths = [k * 2**57 for k in lengths]  # each fits int64: 60 * 2**57 < 2**63
    assume(sum(lengths) > np.iinfo(np.int64).max)
    _satra_as_loop(times, lengths)


def _satra_as_loop(times: list[float], lengths: list[int]) -> None:
    """`satra` returns `satra_loop`'s score bit for bit, or raises where it fails."""
    try:
        expected = satra_loop(times, lengths)
    except ValueError as exc:  # a zero-time suffix
        with pytest.raises(ValueError, match=str(exc)):
            satra(times, lengths)
        return
    except ZeroDivisionError:  # a suffix's time per word underflows to 0
        expected = math.nan
    if not math.isfinite(expected):
        with pytest.raises(ValueError, match="degenerate times"):
            satra(times, lengths)
        return
    assert repr(satra(times, lengths)) == repr(expected)
    assert repr(satra(np.array(times), np.array(lengths))) == repr(expected)


@pytest.mark.parametrize(
    "times",
    [[4.0, 0.0, -0.0, 0.0, 0.0], [4.0, 2.0, 1.0, 0.0, -0.0], [4.0, 2.0, 1.0, 3.0, 0.0]],
    ids=["first-split", "middle-split", "last-split"],
)
def test_satra_zero_time_suffix_at_any_split(times):
    for score in (satra, satra_loop):
        with pytest.raises(ValueError, match="degenerate times: zero-time suffix"):
            score(times, [1, 2, 3, 4, 5])
