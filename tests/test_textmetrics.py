from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from pe_rank.textmetrics import _longest_common_run, bleu, meteor_lite, ter, word_edit_distance

from oracles import (
    brute_min_chunks,
    comprehension_bleu,
    dp_longest_common_run,
    dp_ter,
    dp_word_edit_distance,
    exhaustive_shift_min,
    levenshtein,
    meteor_by_enumeration,
    unpruned_ter,
)

tokens = st.lists(st.sampled_from("abcd"), min_size=0, max_size=6)
nonempty_tokens = st.lists(st.sampled_from("abcd"), min_size=1, max_size=6)


def word_pairs(vocab_sizes, hyp_lengths, ref_lengths):
    """(hyp, ref) over one vocabulary of a drawn size, lengths drawn first so
    that long inputs come up as often as short ones."""

    def pair(v_n_m):
        vocab = st.sampled_from([f"w{i}" for i in range(v_n_m[0])])
        return st.tuples(
            st.lists(vocab, min_size=v_n_m[1], max_size=v_n_m[1]),
            st.lists(vocab, min_size=v_n_m[2], max_size=v_n_m[2]),
        )

    return st.tuples(vocab_sizes, hyp_lengths, ref_lengths).flatmap(pair)


# Lengths up to 100 cross the 64-bit word boundary of the bit vectors.
long_pairs = word_pairs(st.integers(1, 6), st.integers(0, 100), st.integers(0, 100))
# Vocabularies of 2 to 5 words make many shifts tie on gain.
ter_pairs = word_pairs(st.integers(2, 5), st.integers(0, 80), st.integers(1, 80))
# Vocabularies of 1 to 4 words make most candidate shifts tie on gain, and
# ties are where pruning on an equal bound could go wrong.
tie_pairs = word_pairs(st.integers(1, 4), st.integers(0, 40), st.integers(1, 40))
# Pairs of 200 to 260 tokens in which one token is about a quarter of each:
# difflib's autojunk would treat it as junk in a sequence of 200 or more.
frequent_pairs = st.tuples(*[
    st.lists(st.sampled_from(["the"] * 8 + [f"w{i}" for i in range(24)]),
             min_size=200, max_size=260)
] * 2)


# ---------------------------------------------------------------------------
# word_edit_distance


def test_single_substitution():
    assert word_edit_distance(["a", "b", "c"], ["a", "x", "c"]) == 1


def test_single_insertion():
    assert word_edit_distance([], ["a"]) == 1


def test_kitten_sitting():
    hyp = list("kitten")
    ref = list("sitting")
    assert levenshtein(hyp, ref) == 3  # oracle agrees
    assert word_edit_distance(hyp, ref) == 3


@given(tokens, tokens)
def test_edit_distance_matches_full_matrix_oracle(a, b):
    assert word_edit_distance(a, b) == levenshtein(a, b)


@given(long_pairs)
def test_edit_distance_matches_dp_on_long_inputs(pair):
    hyp, ref = pair
    assert word_edit_distance(hyp, ref) == dp_word_edit_distance(hyp, ref)


@given(tokens, tokens)
def test_edit_distance_symmetric(a, b):
    assert word_edit_distance(a, b) == word_edit_distance(b, a)


@given(tokens, tokens, tokens)
def test_edit_distance_triangle_inequality(a, b, c):
    assert word_edit_distance(a, c) <= word_edit_distance(a, b) + word_edit_distance(b, c)


@given(tokens)
def test_edit_distance_identity(a):
    assert word_edit_distance(a, a) == 0


# ---------------------------------------------------------------------------
# ter


def test_ter_identical():
    result = ter(["a", "b"], ["a", "b"])
    assert result.edits == 0
    assert result.score == 0.0


def test_ter_empty_hypothesis():
    result = ter([], ["a", "b"])
    assert result.edits == 2
    assert result.score == 1.0
    assert result.breakdown["insertions"] == 2


def test_ter_single_shift():
    result = ter(["a", "c", "b", "d"], ["a", "b", "c", "d"])
    assert result.edits == 1
    assert result.score == 0.25
    assert result.breakdown["shifts"] == 1


def test_ter_empty_reference():
    with pytest.raises(ValueError, match="empty reference"):
        ter(["a"], [])


@given(nonempty_tokens.filter(lambda t: len(t) >= 1), nonempty_tokens)
def test_ter_zero_iff_equal(hyp, ref):
    result = ter(hyp, ref)
    assert (result.score == 0.0) == (hyp == ref)


@given(tokens, nonempty_tokens)
def test_ter_never_exceeds_edit_distance(hyp, ref):
    result = ter(hyp, ref)
    assert result.edits <= word_edit_distance(hyp, ref)
    assert result.edits >= 0


@given(tokens, nonempty_tokens)
def test_ter_breakdown_sums_to_edits(hyp, ref):
    result = ter(hyp, ref)
    assert sum(result.breakdown.values()) == result.edits


@settings(max_examples=60)
@given(tokens, nonempty_tokens)
def test_ter_at_least_exhaustive_shift_oracle(hyp, ref):
    assert ter(hyp, ref).edits >= exhaustive_shift_min(hyp, ref)


@settings(max_examples=15, deadline=None)  # the DP oracle takes seconds at 80 tokens
@given(ter_pairs)
def test_ter_matches_dp_greedy_ter(pair):
    hyp, ref = pair
    assert ter(hyp, ref).__dict__ == dp_ter(hyp, ref)


def test_ter_matches_dp_greedy_ter_on_unrelated_80_token_sentences():
    rng = random.Random(0)
    vocab = [f"w{i}" for i in range(30)]
    hyp = [rng.choice(vocab) for _ in range(80)]
    ref = [rng.choice(vocab) for _ in range(80)]
    result = ter(hyp, ref)
    assert result.__dict__ == dp_ter(hyp, ref)
    assert result.breakdown["shifts"] == 14


@settings(max_examples=500, deadline=None)
@given(tie_pairs, st.sampled_from([list, tuple]), st.sampled_from([list, tuple]))
def test_pruned_ter_matches_unpruned_ter(pair, hyp_type, ref_type):
    hyp, ref = pair
    assert ter(hyp_type(hyp), ref_type(ref)).__dict__ == unpruned_ter(hyp, ref)


@st.composite
def block_shifts(draw):
    """(hyp, ref, b, length, dest): any block of hyp moved to any place,
    whether or not `ter` would consider the move."""
    vocab = st.sampled_from("abcd"[: draw(st.integers(1, 4))])
    hyp = draw(st.lists(vocab, min_size=1, max_size=12))
    ref = draw(st.lists(vocab, max_size=12))
    length = draw(st.integers(1, len(hyp)))
    b = draw(st.integers(0, len(hyp) - length))
    dest = draw(st.integers(0, len(hyp) - length))
    return hyp, ref, b, length, dest


def dp_column(prefix, ref):
    """Entry j is ed(prefix, ref[:j]), by the DP oracle."""
    return [dp_word_edit_distance(prefix, ref[:j]) for j in range(len(ref) + 1)]


@given(block_shifts())
def test_shift_gain_bounds_hold(case):
    """The two bounds `ter` prunes by, checked against full DP distances:
    the move bound, and at every column past the moved span the column bound
    in both its max-over-rows and its vertical-delta (popcount) forms."""
    hyp, ref, b, length, dest = case
    removed = hyp[:b] + hyp[b + length :]
    shifted = removed[:dest] + hyp[b : b + length] + removed[dest:]
    gain = dp_word_edit_distance(hyp, ref) - dp_word_edit_distance(shifted, ref)
    assert gain <= 2 * min(length, abs(dest - b))
    hi = max(b, dest) + length
    assert shifted[hi:] == hyp[hi:]
    for k in range(hi, len(hyp) + 1):
        col_h, col_s = dp_column(hyp[:k], ref), dp_column(shifted[:k], ref)
        rows = max(h - s for h, s in zip(col_h, col_s))
        steps = [(col_h[j + 1] - col_h[j], col_s[j + 1] - col_s[j]) for j in range(len(ref))]
        deltas = sum((h == 1 and s != 1) + (s == -1 and h != -1) for h, s in steps)
        assert gain <= rows <= deltas


def test_ter_matches_oracle_on_displaced_blocks():
    rng = random.Random(20240)
    vocab = [f"w{i}" for i in range(40)]
    for _ in range(50):
        n = rng.randint(4, 8)
        ref = rng.sample(vocab, n)
        length = rng.randint(1, 3)
        start = rng.randrange(0, n - length + 1)
        block = ref[start : start + length]
        rest = ref[:start] + ref[start + length :]
        dest = rng.randrange(0, len(rest) + 1)
        hyp = rest[:dest] + block + rest[dest:]
        expected = exhaustive_shift_min(hyp, ref)
        assert ter(hyp, ref).edits == expected
        if hyp != ref:
            assert expected == 1


# ---------------------------------------------------------------------------
# bleu


def test_bleu_identical_sentence():
    sent = ["the", "cat", "sat", "on", "mat"]
    assert bleu(sent, sent, 4) == 1.0


def test_bleu_short_hypothesis_brevity():
    score = bleu(["the", "cat", "sat"], ["the", "cat", "sat", "on", "mat"], 2)
    assert score == pytest.approx(0.513417119032592, abs=1e-12)


def test_bleu_no_unigram_overlap():
    assert bleu(["x", "y"], ["a", "b"], 4) == 0.0


def test_bleu_empty_hypothesis():
    assert bleu([], ["a"], 4) == 0.0


def test_bleu_empty_reference():
    with pytest.raises(ValueError):
        bleu(["a"], [], 4)


@given(tokens, nonempty_tokens, st.integers(1, 4))
def test_bleu_in_unit_interval(hyp, ref, max_n):
    assert 0.0 <= bleu(hyp, ref, max_n) <= 1.0


@given(nonempty_tokens, st.integers(1, 4))
def test_bleu_self_is_one_when_long_enough(sent, max_n):
    if len(sent) >= max_n:
        assert bleu(sent, sent, max_n) == pytest.approx(1.0, abs=1e-15)


@given(word_pairs(st.integers(1, 4), st.integers(0, 30), st.integers(1, 30)), st.integers(1, 4))
def test_bleu_matches_the_comprehension_clipped_counts_bit_for_bit(pair, max_n):
    hyp, ref = pair
    assert bleu(hyp, ref, max_n).hex() == comprehension_bleu(hyp, ref, max_n).hex()


# ---------------------------------------------------------------------------
# meteor_lite


def test_meteor_no_common_unigrams():
    result = meteor_lite(["x", "y"], ["a", "b"])
    assert result.matches == 0
    assert result.score == 0.0


def test_meteor_identical_two_tokens():
    result = meteor_lite(["a", "b"], ["a", "b"])
    assert result.matches == 2
    assert result.chunks == 1
    assert result.fmean == pytest.approx(1.0)
    assert result.penalty == pytest.approx(0.0625)
    assert result.score == pytest.approx(0.9375)


def test_meteor_half_overlap():
    result = meteor_lite(["the", "cat"], ["the", "dog"])
    assert result.matches == 1
    assert result.chunks == 1
    assert result.precision == 0.5
    assert result.recall == 0.5
    assert result.fmean == pytest.approx(0.5)
    assert result.penalty == pytest.approx(0.5)
    assert result.score == pytest.approx(0.25)


def test_meteor_empty_reference():
    with pytest.raises(ValueError):
        meteor_lite(["a"], [])


@given(nonempty_tokens)
def test_meteor_self_alignment(sent):
    result = meteor_lite(sent, sent)
    assert result.matches == len(sent)
    assert result.chunks == 1


@given(tokens, nonempty_tokens)
def test_meteor_bounds(hyp, ref):
    result = meteor_lite(hyp, ref)
    assert 0 <= result.chunks <= result.matches
    assert result.matches <= min(len(hyp), len(ref))
    assert 0.0 <= result.score <= 1.0
    assert (result.score == 0.0) == (result.matches == 0)


@settings(max_examples=80)
@given(
    st.lists(st.sampled_from("abc"), min_size=1, max_size=5),
    st.lists(st.sampled_from("abc"), min_size=1, max_size=5),
)
def test_meteor_chunks_match_enumeration_oracle(hyp, ref):
    expected_matches, expected_chunks = brute_min_chunks(hyp, ref)
    result = meteor_lite(hyp, ref)
    assert result.matches == expected_matches
    assert result.chunks == expected_chunks


@given(word_pairs(st.integers(1, 4), st.integers(0, 6), st.integers(1, 6)))
def test_meteor_result_matches_clipped_counts_and_enumeration_bit_for_bit(pair):
    hyp, ref = pair
    # repr tells -0.0 from 0.0, which == does not
    assert repr(vars(meteor_lite(hyp, ref))) == repr(meteor_by_enumeration(hyp, ref))


@settings(max_examples=40)
@given(st.one_of(tie_pairs, frequent_pairs))
def test_longest_common_run_matches_the_dp(pair):
    hyp, ref = pair
    assert _longest_common_run(hyp, ref) == dp_longest_common_run(hyp, ref)
    assert _longest_common_run(ref, hyp) == dp_longest_common_run(hyp, ref)


def test_meteor_exact_beats_naive_greedy_case():
    # naive left-to-right pairing burns the first "b" and lands on 3 chunks;
    # skipping it aligns positions 1..3 with the whole reference in one chunk
    result = meteor_lite(["b", "a", "b", "c"], ["a", "b", "c"])
    assert result.matches == 3
    assert result.chunks == 1
