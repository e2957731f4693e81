"""Estimator weights, unbiasedness identity, and range arithmetic.

Weight values are rebuilt here from raw harmonic sums so the tests do
not trust the coefficients module for the quantities under test.
"""

import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from grouprange import (
    Partition,
    estimate,
    exponential_table,
    make_plan,
    partition_objective,
    rule_of_fours,
    solve_dp,
    theoretical_variance,
)

from partition_reference import enumerate_admissible, harmonic_oracle


def d_oracle(j: int) -> Fraction:
    return harmonic_oracle(j - 1, 1)


def k_sq_oracle(j: int) -> Fraction:
    return harmonic_oracle(j - 1, 2)


def weight_oracle(partition: Partition) -> dict[int, Fraction]:
    total = sum(
        (d_oracle(j) ** 2 / k_sq_oracle(j) * m for j, m in partition.frequencies),
        Fraction(0),
    )
    return {j: (d_oracle(j) / k_sq_oracle(j)) / total for j, _ in partition.frequencies}


# --------------------------------------------------------------------- weights


def test_frozen_weights_for_optimal_22(table40):
    plan = make_plan(Partition.from_parts([5, 5, 4, 4, 4]), table40)
    # one (size, count, weight) per size; the weight is each range's
    assert plan.weights == (
        (5, 2, Fraction(2940, 27133)),
        (4, 3, Fraction(2706, 27133)),
    )
    assert plan.variance_factor == Fraction(2009, 27133)


def test_frozen_weights_small_plans(table40):
    assert make_plan(Partition.from_parts([2]), table40).weights == ((2, 1, Fraction(1)),)
    plan44 = make_plan(Partition.from_parts([4, 4]), table40)
    assert plan44.weights == ((4, 2, Fraction(3, 11)),)


def test_closed_form_plan_stores_one_weight_per_size():
    table = exponential_table(10**6)
    for n, sizes in ((10**6, [(4, 250_000)]), (10**6 - 2, [(5, 2), (4, 249_997)])):
        plan = make_plan(rule_of_fours(n), table)
        assert [(j, m) for j, m, _ in plan.weights] == sizes


def test_weights_match_oracle(table40):
    for n in (7, 9, 13, 22):
        p = solve_dp(n, table40).partition
        expected = weight_oracle(p)
        plan = make_plan(p, table40)
        assert plan.weights == tuple((j, m, expected[j]) for j, m in reversed(p.frequencies))


def test_weights_are_per_range_not_per_size():
    # folding a size's weight across its repeats (2 * 2940, 3 * 2706)
    # gives 5880/27133 and 8118/27133; those pair with each size's MEAN
    # range, not with each range, and misusing them per range is biased
    folded = {5: Fraction(5880, 27133), 4: Fraction(8118, 27133)}
    p = Partition.from_parts([5, 5, 4, 4, 4])
    per_range_misuse = sum(folded[j] * d_oracle(j) * m for j, m in p.frequencies)
    assert per_range_misuse == Fraction(69149, 27133)
    assert per_range_misuse != 1
    per_size_mean = sum(folded[j] * d_oracle(j) for j, _ in p.frequencies)
    assert per_size_mean == 1
    # a plan stores the per-range weight with its count, never the folded one
    plan = make_plan(p, exponential_table(5))
    assert [(j, m * a) for j, m, a in plan.weights] == sorted(folded.items(), reverse=True)


def test_unbiasedness_identity_exact(table40):
    for n in range(2, 26):
        for p in enumerate_admissible(n):
            plan = make_plan(p, table40)
            assert sum(m * a * d_oracle(j) for j, m, a in plan.weights) == 1


def test_weights_align_with_parts(table40):
    p = Partition.from_parts([5, 3, 3, 2])
    plan = make_plan(p, table40)
    # expanded by count, the sizes are the parts in the order estimate slices them
    assert tuple(j for j, m, _ in plan.weights for _ in range(m)) == p.parts
    assert [j for j, _, _ in plan.weights] == [5, 3, 2]
    assert all(a > 0 for _, _, a in plan.weights)


def test_make_plan_requires_covered_parts():
    t = exponential_table(4)
    with pytest.raises(ValueError, match="not covered"):
        make_plan(Partition.from_parts([5, 4]), t)


# -------------------------------------------------------------------- variance


def test_variance_factor_is_reciprocal_objective(table40):
    for n in range(2, 21):
        for p in enumerate_admissible(n):
            plan = make_plan(p, table40)
            assert plan.variance_factor == 1 / partition_objective(p, table40)


def test_optimal_partition_minimizes_variance(table40):
    for n in range(8, 17):
        best = solve_dp(n, table40).partition
        vf_best = make_plan(best, table40).variance_factor
        for p in enumerate_admissible(n):
            assert vf_best <= make_plan(p, table40).variance_factor


def test_theoretical_variance_values(table40):
    plan = make_plan(Partition.from_parts([5, 5, 4, 4, 4]), table40)
    assert theoretical_variance(plan, 1.0) == pytest.approx(0.0740427, abs=5e-8)
    assert theoretical_variance(plan, 3.0) == pytest.approx(9 * theoretical_variance(plan, 1.0))
    with pytest.raises(ValueError):
        theoretical_variance(plan, 0.0)
    with pytest.raises(ValueError):
        theoretical_variance(plan, -1.0)
    # sigma**2 would overflow to inf or flush to 0.0 outside [1e-100, 1e100]
    for sigma in (math.nan, math.inf, -math.inf, 1e200, 1e-200):
        with pytest.raises(ValueError, match="finite"):
            theoretical_variance(plan, sigma)
    assert theoretical_variance(plan, 1e100) == float(plan.variance_factor) * 1e200
    assert theoretical_variance(plan, 1e-100) == float(plan.variance_factor) * 1e-200


def test_theoretical_variance_takes_sigma_as_its_float(table40):
    plan = make_plan(Partition.from_parts([4, 4]), table40)
    assert theoretical_variance(plan, Fraction(3, 2)) == theoretical_variance(plan, 1.5)
    assert theoretical_variance(plan, Decimal("1.5")) == theoretical_variance(plan, 1.5)
    # float() would parse these
    for sigma in ("2", b"2", bytearray(b"2")):
        with pytest.raises(TypeError, match="sigma must be a number"):
            theoretical_variance(plan, sigma)


# -------------------------------------------------------------------- estimate


def test_estimate_frozen_values(table40):
    plan2 = make_plan(Partition.from_parts([2]), table40)
    assert estimate([0.0, 1.0], plan2) == 1.0
    plan22 = make_plan(Partition.from_parts([2, 2]), table40)
    # ranges 3 and 4 with weight 1/2 each
    assert estimate([3.0, 0.0, 5.0, 1.0], plan22) == 3.5
    plan = make_plan(Partition.from_parts([5, 4, 3]), table40)
    assert estimate([2.0] * 12, plan) == 0.0


def test_estimate_rejects_wrong_length(table40):
    plan = make_plan(Partition.from_parts([4, 3]), table40)
    with pytest.raises(ValueError, match="plan needs 7"):
        estimate([1.0] * 6, plan)


def test_estimate_rejects_non_finite(table40):
    # max/min over a block with NaN depend on where the NaN sits, so the
    # estimate would depend on sample order; reject at every position
    plan = make_plan(Partition.from_parts([3, 2]), table40)
    sample = [4.0, 1.0, 7.0, 2.0, 9.0]
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(len(sample)):
            corrupted = sample[:i] + [bad] + sample[i + 1 :]
            with pytest.raises(ValueError, match="non-finite"):
                estimate(corrupted, plan)


def test_estimate_block_structure(table40):
    plan = make_plan(Partition.from_parts([3, 2]), table40)
    sample = [4.0, 1.0, 7.0, 2.0, 9.0]
    base = estimate(sample, plan)
    # permuting within a block never changes a range
    assert estimate([7.0, 4.0, 1.0, 9.0, 2.0], plan) == base
    # moving the largest observation across the block boundary does
    swapped = estimate([4.0, 1.0, 2.0, 7.0, 9.0], plan)
    assert swapped != base


def test_estimate_scale_equivariance_exact(table40):
    plan = make_plan(Partition.from_parts([4, 3, 2]), table40)
    sample = [0.31, 2.7, 1.44, 0.9, 5.25, 0.125, 3.5, 1.0, 0.75]
    base = estimate(sample, plan)
    for scale in (2.0, 8.0, 0.25):
        assert estimate([scale * x for x in sample], plan) == scale * base


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_estimate_scale_equivariance_approx(scale):
    table = exponential_table(5)
    plan = make_plan(Partition.from_parts([3, 2]), table)
    sample = [0.2, 1.7, 0.6, 2.4, 0.9]
    assert estimate([scale * x for x in sample], plan) == pytest.approx(
        scale * estimate(sample, plan), rel=1e-12
    )
