"""Acceptance suite: one test per shipped claim, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
check is also a hard assertion, so the suite fails loudly without -s.
Exact claims use rational arithmetic and zero tolerance; Monte-Carlo
claims state their seed, replicate count, and tolerance inline.
"""

from fractions import Fraction

import pytest

from grouprange import (
    Partition,
    asymptotic_admissible,
    build_residue_graph,
    count_admissible,
    make_plan,
    monte_carlo,
    partition_objective,
    ratio,
    rule_of_fours,
    shortest_paths,
    solve_dp,
    solve_group_relaxation,
    verify_lemma,
)

from partition_reference import count_unrestricted, enumerate_admissible, envelope

SEED = 42
REPLICATES = 10**6


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def mc_optimal(table40):
    plan = make_plan(Partition.from_parts([5, 5, 4, 4, 4]), table40)
    return monte_carlo(plan, 1.0, REPLICATES, SEED)


@pytest.fixture(scope="module")
def mc_halves(table40):
    plan = make_plan(Partition.from_parts([11, 11]), table40)
    return monte_carlo(plan, 1.0, REPLICATES, SEED)


def test_criterion_1_solvers_agree_exactly(table400):
    mismatches = []
    for n in range(2, 401):
        dp = solve_dp(n, table400).objective
        gr = solve_group_relaxation(n, table400).objective
        closed = partition_objective(rule_of_fours(n), table400)
        if not dp == gr == closed:
            mismatches.append(n)
    brute_bad = []
    for n in range(2, 41):
        best = max(partition_objective(p, table400) for p in enumerate_admissible(n))
        if solve_dp(n, table400).objective != best:
            brute_bad.append(n)
    _report(
        1,
        not mismatches and not brute_bad,
        "dp == group relaxation == closed form for n = 2..400, "
        "and == brute-force maximum for n = 2..40, exact equality; "
        f"mismatches {mismatches + brute_bad or 'none'}",
    )


def test_criterion_2_exact_constants(table40):
    graph = build_residue_graph(table40, 22)
    paths = shortest_paths(graph)
    parts_22 = {
        solve_dp(22, table40).partition.parts,
        solve_group_relaxation(22, table40).partition.parts,
        rule_of_fours(22).parts,
    }
    ok = (
        ratio(4, table40) == Fraction(121, 196)
        and graph.steps == (
            (1, 5, Fraction(305, 8036)),
            (2, 6, Fraction(73285, 516362)),
            (3, 3, Fraction(51, 980)),
        )
        and 2 * table40.c(4) / 4 - table40.c(2) == Fraction(23, 98)
        and paths[1][0] == Fraction(305, 8036)
        and paths[2][0] == Fraction(610, 8036)
        and paths[3][0] == Fraction(51, 980)
        and parts_22 == {(5, 5, 4, 4, 4)}
    )
    _report(
        2,
        ok,
        "C_4/4 = 121/196; residue steps (+1: part 5, 305/8036), "
        "(+2: part 6, 73285/516362), (+3: part 3, 51/980); w_2 = 23/98; "
        "path totals 305/8036, 610/8036, 51/980; n = 22 optimum (5,5,4,4,4); "
        "rational equality",
    )


def test_criterion_3_peak_ratio_everywhere(table1000):
    exceptions = [
        n for n in range(2, 1001)
        if n != 4 and not ratio(n, table1000) < Fraction(121, 196)
    ]
    h_cross = envelope(34) < 27 / 44 < 121 / 196
    h_monotone = all(envelope(n) > envelope(n + 1) for n in range(4, 1000))
    report = verify_lemma(1000, table1000)
    ok = not exceptions and h_cross and h_monotone and report.holds
    _report(
        3,
        ok,
        "C_n/n < 121/196 exactly for all n != 4 in 2..1000; "
        "h(34) < 27/44 < 121/196 and h decreasing on 4..1000; "
        f"exceptions {exceptions or 'none'}",
    )


def test_criterion_4_partition_counts():
    enum_bad = [
        n for n in range(2, 41)
        if sum(1 for _ in enumerate_admissible(n)) != count_admissible(n)
    ]
    ok = (
        count_admissible(100) == 21_339_417
        and count_unrestricted(4) == 5
        and not enum_bad
    )
    _report(
        4,
        ok,
        f"count_admissible(100) = {count_admissible(100)} (want 21339417), "
        f"count_unrestricted(4) = {count_unrestricted(4)} (want 5), "
        "enumeration sizes match counts for n = 2..40, exact",
    )


def test_criterion_5_unbiasedness_identity(table100):
    def identity_holds(partition):
        plan = make_plan(partition, table100)
        return sum(m * a * table100.d(j) for j, m, a in plan.weights) == 1

    bad = []
    for n in range(2, 41):
        bad.extend(p for p in enumerate_admissible(n) if not identity_holds(p))
    for n in range(41, 101):
        if not identity_holds(rule_of_fours(n)):
            bad.append(rule_of_fours(n))

    # weight-convention note: the correct per-range weights at n = 22 are
    # 2940/27133 (size 5) and 2706/27133 (size 4); the multiplicity-folded
    # values 5880/27133 and 8118/27133 fail this same identity per range
    plan22 = make_plan(Partition.from_parts([5, 5, 4, 4, 4]), table100)
    correct = plan22.weights == (
        (5, 2, Fraction(2940, 27133)),
        (4, 3, Fraction(2706, 27133)),
    )
    folded_sum = (
        2 * Fraction(5880, 27133) * table100.d(5)
        + 3 * Fraction(8118, 27133) * table100.d(4)
    )
    ok = not bad and correct and folded_sum != 1
    _report(
        5,
        ok,
        "sum a_i d_i = 1 exactly for every plan with n <= 40 and the "
        "closed-form plans for 41..100; per-range weights 2940/27133 and "
        "2706/27133 satisfy it, the folded pair 5880/8118 does not",
    )


def test_criterion_6_monte_carlo_calibration(mc_optimal):
    r = mc_optimal
    mean_gap = abs(r.mean_estimate - 1.0)
    var_gap = abs(r.variance_estimate / (2009 / 27133) - 1.0)
    ok = mean_gap < 4 * r.mean_std_error and var_gap < 0.02
    _report(
        6,
        ok,
        f"n = 22, theta = 1, {REPLICATES} replicates, seed {SEED}: "
        f"|mean - 1| = {mean_gap:.2e} < 4 SE = {4 * r.mean_std_error:.2e}; "
        f"|var/(2009/27133) - 1| = {var_gap:.4f} < 0.02",
    )


def test_criterion_7_balanced_split_is_worse(mc_optimal, mc_halves):
    ok = (
        mc_halves.variance_estimate > mc_optimal.variance_estimate
        and mc_halves.theoretical_variance > mc_optimal.theoretical_variance
    )
    _report(
        7,
        ok,
        f"empirical variance at n = 22, {REPLICATES} replicates, seed {SEED}: "
        f"(11,11) gives {mc_halves.variance_estimate:.6f} > "
        f"(5,5,4,4,4) gives {mc_optimal.variance_estimate:.6f}",
    )


def test_criterion_8_asymptotic_trend():
    r100 = count_admissible(100) / asymptotic_admissible(100)
    r400 = count_admissible(400) / asymptotic_admissible(400)
    ok = abs(r400 - 1) < abs(r100 - 1) and 0.5 < r100 < 2 and 0.5 < r400 < 2
    _report(
        8,
        ok,
        f"count/asymptotic = {r100:.4f} at n = 100, {r400:.4f} at n = 400; "
        "the n = 400 ratio is closer to 1",
    )
