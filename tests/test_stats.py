from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pe_rank.stats import (
    _beta_cont_frac,
    cluster_annotators,
    ks_survival,
    ks_two_sample,
    regularized_incomplete_beta,
    student_t_sf,
    weighted_mean_std,
    williams_test,
)

from oracles import moments_weighted_mean_std, unfolded_beta_cont_frac

# Frozen before the build from an independent statistical package:
# survival values of Student's t on a (t, df) grid.
T_SF_ORACLE = {
    (-5.0, 1): 0.9371670418109989,
    (-2.0, 1): 0.8524163823495667,
    (-1.0, 1): 0.7500000000000002,
    (-0.5, 1): 0.6475836176504333,
    (0.0, 1): 0.5,
    (0.5, 1): 0.3524163823495668,
    (1.0, 1): 0.24999999999999978,
    (2.0, 1): 0.1475836176504332,
    (3.0, 1): 0.10241638234956672,
    (5.0, 1): 0.06283295818900117,
    (-5.0, 2): 0.9811252243246881,
    (-2.0, 2): 0.908248290463863,
    (-1.0, 2): 0.7886751345948129,
    (-0.5, 2): 0.6666666666666667,
    (0.0, 2): 0.5,
    (0.5, 2): 0.33333333333333337,
    (1.0, 2): 0.21132486540518713,
    (2.0, 2): 0.09175170953613696,
    (3.0, 2): 0.04773298313335456,
    (5.0, 2): 0.018874775675311862,
    (-5.0, 5): 0.9979476420099733,
    (-2.0, 5): 0.9490302605850709,
    (-1.0, 5): 0.8183912661754387,
    (-0.5, 5): 0.6808505641795355,
    (0.0, 5): 0.5,
    (0.5, 5): 0.3191494358204645,
    (1.0, 5): 0.18160873382456127,
    (2.0, 5): 0.05096973941492914,
    (3.0, 5): 0.015049623948731284,
    (5.0, 5): 0.0020523579900266612,
    (-5.0, 30): 0.9999883516572665,
    (-2.0, 30): 0.9726874775185085,
    (-1.0, 30): 0.8373456922869851,
    (-0.5, 30): 0.6896384975574363,
    (0.0, 30): 0.5,
    (0.5, 30): 0.31036150244256366,
    (1.0, 30): 0.16265430771301492,
    (2.0, 30): 0.02731252248149155,
    (3.0, 30): 0.002694982032825972,
    (5.0, 30): 1.1648342733503893e-05,
    (-5.0, 200): 0.9999993749009362,
    (-2.0, 200): 0.9765734069064644,
    (-1.0, 200): 0.8407405760451265,
    (-0.5, 200): 0.6911876238417696,
    (0.0, 200): 0.5,
    (0.5, 200): 0.3088123761582304,
    (1.0, 200): 0.15925942395487352,
    (2.0, 200): 0.023426593093535494,
    (3.0, 200): 0.001521523556952952,
    (5.0, 200): 6.250990638857695e-07,
}

# Frozen (r12, r13, r23, n) -> (t, one-tailed p), same provenance.
WILLIAMS_ORACLE = [
    ((0.5, 0.8, 0.6, 100), 3.3454500348104728, 0.0005846841843015046),
    ((0.2, 0.45, 0.35, 1047), 2.9116450104116303, 0.0018358860660681086),
    ((0.8, 0.3, 0.55, 40), -2.9939505716443255, 0.9975565517922212),
]

KS_SURVIVAL_AT_ONE = 0.26999967167735456


# ---------------------------------------------------------------------------
# weighted_mean_std


def test_weighted_equal_weights_reduce_to_unweighted():
    mean, std = weighted_mean_std([1.0, 3.0], [2.0, 2.0])
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(1.0)


def test_weighted_uneven_weights():
    mean, std = weighted_mean_std([1.0, 3.0], [3.0, 1.0])
    assert mean == pytest.approx(1.5)
    assert std == pytest.approx(0.8660254037844386, abs=1e-12)


def test_weighted_single_value():
    assert weighted_mean_std([5.0], [2.0]) == (5.0, 0.0)


def test_weighted_takes_arrays_as_it_takes_lists():
    values, weights = [1.0, 2.0], [1.0, 1.0]
    assert weighted_mean_std(values, weights) == (1.5, 0.5)
    assert weighted_mean_std(np.array(values), np.array(weights)) == (1.5, 0.5)


def test_weighted_all_zero_weights():
    with pytest.raises(ValueError, match="all-zero"):
        weighted_mean_std([1.0, 2.0], [0.0, 0.0])


@pytest.mark.parametrize(
    "values, weights",
    [
        ([1.0, 2.0], [float("nan"), 1.0]),
        ([1.0, 2.0], [1.0, float("inf")]),
        ([float("nan"), 2.0], [1.0, 1.0]),
        ([1.0, float("inf")], [1.0, 1.0]),
        ([1.0, -float("inf")], [1.0, 1.0]),
    ],
)
def test_weighted_non_finite_input_is_rejected(values, weights):
    with pytest.raises(ValueError, match="non-finite weight or value"):
        weighted_mean_std(values, weights)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=20))
def test_weighted_equal_weights_property(values):
    mean, std = weighted_mean_std(values, [3.5] * len(values))
    arr = np.asarray(values)
    assert mean == pytest.approx(float(arr.mean()), abs=1e-9)
    assert std == pytest.approx(float(arr.std()), abs=1e-9)


@given(
    st.lists(st.tuples(st.floats(-1e6, 1e6), st.floats(0, 1e6)), min_size=1, max_size=40)
    .filter(lambda pairs: any(w > 0 for _, w in pairs))
)
def test_weighted_matches_the_moment_sums_bit_for_bit(pairs):
    values, weights = zip(*pairs)
    got = weighted_mean_std(values, weights)
    assert [type(v) for v in got] == [float, float]
    assert [v.hex() for v in got] == [v.hex() for v in moments_weighted_mean_std(values, weights)]


# ---------------------------------------------------------------------------
# student_t_sf


def test_t_sf_at_zero():
    for df in (1, 7, 100):
        assert student_t_sf(0.0, df) == 0.5


def test_t_sf_large_df_near_normal():
    assert student_t_sf(1.96, 10000) == pytest.approx(0.025, abs=1e-3)


def test_t_sf_matches_frozen_oracle_grid():
    for (t, df), expected in T_SF_ORACLE.items():
        assert student_t_sf(t, df) == pytest.approx(expected, abs=1e-6)


@given(st.floats(0, 8), st.integers(1, 500))
def test_t_sf_symmetry(t, df):
    assert student_t_sf(-t, df) == pytest.approx(1.0 - student_t_sf(t, df), abs=1e-10)


@given(st.floats(0, 1), st.floats(0.5, 20), st.floats(0.5, 20))
def test_incomplete_beta_monotone_and_bounded(x, a, b):
    value = regularized_incomplete_beta(a, b, x)
    assert 0.0 <= value <= 1.0


# Shape parameters over the range the Williams test reaches (df / 2 and 0.5),
# and the half-integers it takes exactly.
_shape = st.one_of(st.floats(0.01, 300), st.integers(1, 600).map(lambda k: k / 2))


@settings(max_examples=1000)
@given(_shape, _shape, st.floats(0, 1, exclude_min=True, exclude_max=True))
def test_beta_cont_frac_matches_the_unfolded_updates_bit_for_bit(a, b, x):
    assert _beta_cont_frac(a, b, x).hex() == unfolded_beta_cont_frac(a, b, x).hex()


# ---------------------------------------------------------------------------
# williams_test


def test_williams_equal_correlations():
    result = williams_test(0.3, 0.6, 0.6, 50)
    assert result.t_stat == 0.0
    assert result.p_one_tailed == 0.5
    assert result.df == 47


def test_williams_antisymmetry():
    a = williams_test(0.4, 0.7, 0.5, 80)
    b = williams_test(0.4, 0.5, 0.7, 80)
    assert a.t_stat == pytest.approx(-b.t_stat, abs=1e-12)
    assert a.p_one_tailed == pytest.approx(1.0 - b.p_one_tailed, abs=1e-10)


def test_williams_matches_frozen_oracle():
    for (r12, r13, r23, n), t_expected, p_expected in WILLIAMS_ORACLE:
        result = williams_test(r12, r13, r23, n)
        assert result.t_stat == pytest.approx(t_expected, abs=1e-6)
        assert result.p_one_tailed == pytest.approx(p_expected, abs=1e-6)


def test_williams_p_decreases_as_gap_grows():
    previous = 1.0
    for r13 in (0.40, 0.45, 0.5, 0.6, 0.7, 0.8):
        p = williams_test(0.5, r13, 0.4, 120).p_one_tailed
        assert p < previous
        previous = p


def test_williams_input_validation():
    with pytest.raises(ValueError):
        williams_test(0.5, 0.6, 0.4, 3)
    with pytest.raises(ValueError):
        williams_test(0.5, 1.0, 0.4, 30)


# ---------------------------------------------------------------------------
# ks_two_sample


def test_ks_identical_samples():
    result = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert result.d_stat == 0.0
    assert result.p_value == 1.0


def test_ks_disjoint_supports():
    result = ks_two_sample([1.0, 2.0], [3.0, 4.0])
    assert result.d_stat == 1.0


def test_ks_interleaved_half():
    result = ks_two_sample([1.0, 3.0], [2.0, 4.0])
    assert result.d_stat == 0.5


def test_ks_symmetry():
    a = [0.5, 1.5, 2.5, 9.0]
    b = [1.0, 1.1, 4.0]
    left = ks_two_sample(a, b)
    right = ks_two_sample(b, a)
    assert left == right


def test_ks_survival_frozen_value():
    assert ks_survival(1.0) == pytest.approx(KS_SURVIVAL_AT_ONE, abs=1e-9)
    assert ks_survival(0.0) == 1.0


def test_ks_survival_is_one_where_the_series_does_not_converge():
    # every term is about 2 in size, so 100 of them sum to about 0 before the clamp
    assert ks_survival(1e-6) == 1.0


def test_ks_small_sample_rejected():
    with pytest.raises(ValueError):
        ks_two_sample([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# cluster_annotators


def test_cluster_identical_distributions():
    values = [float(i) for i in range(50)]
    clusters = cluster_annotators({"A": values, "B": list(values)})
    assert clusters == [["A", "B"]]


def test_cluster_disjoint_distributions():
    a = [float(i) for i in range(100)]
    b = [float(i) + 1000 for i in range(100)]
    assert cluster_annotators({"A": a, "B": b}) == [["A"], ["B"]]


def test_cluster_chain_becomes_one_component():
    a = [float(i) for i in range(100)]
    b = [float(i) + 13 for i in range(100)]
    c = [float(i) + 26 for i in range(100)]
    assert ks_two_sample(a, b).p_value >= 0.05
    assert ks_two_sample(b, c).p_value >= 0.05
    assert ks_two_sample(a, c).p_value < 0.05
    assert cluster_annotators({"A": a, "B": b, "C": c}) == [["A", "B", "C"]]


def test_cluster_requires_two_annotators():
    with pytest.raises(ValueError):
        cluster_annotators({"A": [1.0, 2.0]})
