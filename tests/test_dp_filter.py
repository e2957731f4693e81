"""The float-first solvers against their plain exact references.

``reference_dp`` is the exact fill as it stood before the float
filter and the dominance pruning: every part is compared in Fraction
arithmetic at every capacity.  ``solve_dp`` must return the same
partition, objective and tie-break for every n on random tables,
tie-heavy tables, tables with near ties far below float resolution,
convex tables (C_j / j increasing, the shape the filter exists for),
tables whose d and k_sq sit at the ends of the range
``CoefficientEntry`` accepts, and tables whose capacities meet the LP
bound that fills them in O(1).

``reference_group_relaxation`` is the group relaxation as it stood
before its scans read floats: the best part and every penalty w_j
compared in Fraction arithmetic, and Dijkstra run afresh for each n.
``build_residue_graph`` and ``solve_group_relaxation`` must match it
on random, tie-heavy and near-tie tables (a best-part ratio or a
penalty within 1e-12 relative of its rival), on the LP bound's tables
and on a table whose best part changes with n.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from grouprange import (
    CoefficientEntry,
    CoefficientTable,
    Partition,
    ResidueGraph,
    SolveResult,
    build_residue_graph,
    exponential_table,
    partition_objective,
    shortest_paths,
    solve_dp,
    solve_group_relaxation,
)
from grouprange import optimizer
from grouprange.optimizer import _states

from conftest import child_env


def reference_dp(table, n):
    """Exact values and tie-broken parts for capacities 0..n."""
    values = [Fraction(0), None]
    parts = [(), None]
    c = {j: table.c(j) for j in range(2, n + 1)}
    for w in range(2, n + 1):
        best_value = None
        best_parts = None
        for j in range(2, w + 1):
            prev = values[w - j]
            if prev is None:
                continue
            cand = prev + c[j]
            if best_value is None or cand > best_value:
                best_value = cand
                best_parts = tuple(sorted(parts[w - j] + (j,), reverse=True))
            elif cand == best_value:
                cand_parts = tuple(sorted(parts[w - j] + (j,), reverse=True))
                # fewer parts first, then descending lexicographic
                if (-len(cand_parts), cand_parts) > (-len(best_parts), best_parts):
                    best_parts = cand_parts
        values.append(best_value)
        parts.append(best_parts)
    return values, parts


def table_of(cs):
    """A table with C_j = cs[j - 2] (d = k_sq = C_j, so d**2 / k_sq = C_j)."""
    return CoefficientTable(
        "test", tuple(CoefficientEntry(j, c, c) for j, c in enumerate(cs, start=2))
    )


def assert_matches_reference(table, order_seed=0):
    n_max = table.max_part
    values, parts = reference_dp(table, n_max)
    order = list(range(2, n_max + 1))
    random.Random(order_seed).shuffle(order)  # extend the cache from arbitrary points
    for n in order:
        result = solve_dp(n, table)
        assert result.objective == values[n], n
        assert result.partition.parts == parts[n], n


def test_tied_part_stays_a_candidate():
    # C_6 = 2 * C_3 exactly: (6,) ties (3, 3) and wins on fewer parts, so
    # part 6 is tied, not dominated, and every multiple of 6 is made of
    # 6s.  Pruning a tied part would answer (3, 3, 3, 3) at 12.  Parts
    # from 7 on, C_j = j - 1, are dominated.
    cs = [Fraction(1), Fraction(3), Fraction(7, 2), Fraction(9, 2), Fraction(6)]
    cs += [Fraction(j - 1) for j in range(7, 25)]
    table = table_of(cs)
    assert table.c(6) == 2 * table.c(3)
    assert_matches_reference(table)
    assert solve_dp(12, table).partition.parts == (6, 6)
    assert solve_dp(24, table).partition.parts == (6, 6, 6, 6)
    assert _states[id(table)].parts == [2, 3, 4, 5, 6]


def test_exponential_table_prunes_to_parts_2_to_5():
    # every part from 6 on splits into a better allocation, the rule of
    # fours, so the fill at 600 tries five parts where it tried 599
    table = exponential_table(600)
    solve_dp(600, table)
    assert _states[id(table)].parts == [2, 3, 4, 5]


positive = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000)

# C_j for j = 2..31 of tables whose capacities meet the LP bound
# w * max_{j <= w} C_j / j: every capacity on the convex (C_j = j**2) and
# the all-tied (C_j = j/2) table, the even ones on the parity table, whose
# odd parts fall 1e-12 short of j/2, tie (j - 3, 3) and stay undominated
BOUND_TABLES = {
    "convex": [Fraction(j * j) for j in range(2, 32)],
    "all_tied": [Fraction(j, 2) for j in range(2, 32)],
    "parity": [Fraction(j, 2) - Fraction(j % 2, 10**12) for j in range(2, 32)],
}


def bound_table_examples(test):
    for cs in BOUND_TABLES.values():
        test = example(cs=cs, order_seed=0)(test)
    return test


@settings(max_examples=60, deadline=None)
@given(cs=st.lists(positive, min_size=1, max_size=28), order_seed=st.integers(0, 2**16))
@bound_table_examples
def test_random_tables(cs, order_seed):
    assert_matches_reference(table_of(cs), order_seed)


@settings(max_examples=60, deadline=None)
@given(
    ties=st.lists(st.booleans(), min_size=1, max_size=28),
    order_seed=st.integers(0, 2**16),
)
def test_tie_heavy_tables(ties, order_seed):
    # C_j = j/2 for the tie parts, so every partition of them ties;
    # the rest fall just short, C_j = j**2 / (2j + 1)
    cs = [Fraction(j, 2) if tie else Fraction(j * j, 2 * j + 1)
          for j, tie in enumerate(ties, start=2)]
    assert_matches_reference(table_of(cs), order_seed)


@settings(max_examples=80, deadline=None)
@given(
    ties=st.lists(st.booleans(), min_size=3, max_size=24),
    rate=st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=97),
    bumped=st.integers(0, 100),
    sign=st.sampled_from([-1, 1]),
    exponent=st.integers(12, 20),
    order_seed=st.integers(0, 2**16),
)
def test_near_tie_tables(ties, rate, bumped, sign, exponent, order_seed):
    # C_j = rate * j ties every partition of the tie parts; one part's
    # C_j then moves off the tie by a relative 10**-exponent.  From
    # about 10**-16 down the float sums can no longer order it, or order
    # it the wrong way, but the exact comparison must
    cs = [rate * j if tie else rate * j * (1 - Fraction(1, j + 2))
          for j, tie in enumerate(ties, start=2)]
    k = bumped % len(cs)
    cs[k] = rate * (k + 2) * (1 + Fraction(sign, 10**exponent))
    assert_matches_reference(table_of(cs), order_seed)


def test_near_tie_decides_exactly():
    # (4) and (2, 2) differ by a relative 1e-17, below float64
    # resolution: their floats tie, so only the exact comparison can
    # pick (2, 2) over the fewer-parts (4) when C_4 falls short
    for sign, expected in ((1, (4,)), (-1, (2, 2))):
        c4 = Fraction(2) * (1 + Fraction(sign, 10**17))
        assert float(c4) == 2.0
        table = table_of([Fraction(1), Fraction(3, 2), c4])
        assert solve_dp(4, table).partition.parts == expected


def test_filter_keeps_a_maximizer_the_floats_misorder():
    # (3, 2) beats (5) by a relative 1e-17, yet the rounded sum
    # float(C_2) + float(C_3) falls below float(C_5): a filter that kept
    # only the float best would answer (5)
    c5 = Fraction(167515, 16399)
    c2 = Fraction(328627, 78050)
    c3 = c5 * (1 + Fraction(1, 10**17)) - c2
    assert float(c2) + float(c3) < float(c5)
    table = table_of([c2, c3, Fraction(1, 10), c5])
    result = solve_dp(5, table)
    assert result.partition.parts == (3, 2)
    assert result.objective == c2 + c3


@settings(max_examples=60, deadline=None)
@given(
    c2=positive,
    steps=st.lists(
        st.fractions(min_value=Fraction(1, 10**18), max_value=10, max_denominator=10**18),
        min_size=1, max_size=27,
    ),
    order_seed=st.integers(0, 2**16),
)
def test_convex_tables(c2, steps, order_seed):
    # C_j / j strictly increasing, as for a uniform parent: no part is
    # dominated and (w,) beats every split of w, C_w > sum_j f_j C_j.
    # Steps down to 1e-18 put the runner-up within float resolution
    ratios = [c2 / 2]
    for step in steps:
        ratios.append(ratios[-1] + step)
    table = table_of([j * r for j, r in enumerate(ratios, start=2)])
    assert_matches_reference(table, order_seed)
    for w in range(2, table.max_part + 1):
        assert solve_dp(w, table).partition.parts == (w,)
    assert _states[id(table)].parts == list(range(2, table.max_part + 1))


def test_all_tied_fill_builds_a_key_per_capacity_at_most(monkeypatch):
    # every part of the all-tied table ties in floats, so each capacity
    # would send every part to the exact comparison, about n**2 / 2 keys
    # by n; the LP bound fills each capacity with its one part
    calls = []
    with_part = optimizer._with_part
    monkeypatch.setattr(optimizer, "_with_part", lambda key, j: calls.append(j) or with_part(key, j))
    n = 1500
    table = table_of([Fraction(j, 2) for j in range(2, n + 1)])
    assert solve_dp(n, table).partition.parts == (n,)
    assert len(calls) <= n


def test_all_tied_table_runs_cold_in_seconds(tmp_path):
    # cold optimal 4000 --table takes 0.2 to 0.5 s; the quadratic fill took 31 s
    path = tmp_path / "tied.csv"
    path.write_text("j,d,k_sq\n" + "".join(f"{j},{j},{2 * j}\n" for j in range(2, 4001)))
    argv = ["optimal", "4000", "--table", str(path), "--format", "csv"]
    proc = subprocess.run([sys.executable, "-m", "grouprange.cli", *argv], env=child_env(),
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_convex_fill_at_the_cli_bound_is_fast():
    # on the convex table the float filter passes one candidate a
    # capacity, but the fill still summed every part's float, O(n**2):
    # 5 to 8 s at n = 10,000; with the LP bound each capacity is O(1)
    n = 10_000
    table = table_of([Fraction(j * j) for j in range(2, n + 1)])
    start = time.perf_counter()
    assert solve_dp(n, table).partition.parts == (n,)
    assert time.perf_counter() - start < 2


LOW, HIGH = Fraction(1, 10**50), Fraction(10**50)  # CoefficientEntry's bounds on d and k_sq
CORNERS = [(d, k_sq) for d in (LOW, HIGH) for k_sq in (LOW, HIGH)]
JUST = Fraction(1, 10**30)


@settings(max_examples=40, deadline=None)
@given(
    cs=st.lists(positive, min_size=1, max_size=16),
    ends=st.lists(
        st.tuples(st.integers(0, 15), st.sampled_from(CORNERS)),
        min_size=1, max_size=6,
    ),
    order_seed=st.integers(0, 2**16),
)
def test_entries_at_the_bounds(cs, ends, order_seed):
    # d and k_sq just outside [1e-50, 1e50] are refused ...
    for d, k_sq, name in [
        (HIGH * (1 + JUST), Fraction(1), "expected range d"),
        (LOW * (1 - JUST), Fraction(1), "expected range d"),
        (Fraction(1), HIGH * (1 + JUST), "variance k_sq"),
        (Fraction(1), LOW * (1 - JUST), "variance k_sq"),
    ]:
        with pytest.raises(ValueError, match=rf"^{name} outside \[1e-50, 1e50\]$"):
            CoefficientEntry(2, d, k_sq)
    # ... and at its ends they give C_j from 1e-150 to 1e150, mixed with
    # ordinary parts, where the float filter must still match the
    # exact fill
    entries = [CoefficientEntry(j, c, c) for j, c in enumerate(cs, start=2)]
    for i, (d, k_sq) in ends:
        j = 2 + i % len(cs)
        entries[j - 2] = CoefficientEntry(j, d, k_sq)
    assert_matches_reference(CoefficientTable("test", tuple(entries)), order_seed)


# ------------------------------------------------------------ group relaxation


def reference_group_relaxation(table, n):
    """(residue graph, result) with every comparison exact."""
    c = {j: table.c(j) for j in range(2, n + 1)}
    b = max(range(2, n + 1), key=lambda j: (c[j] / j, -j))  # smallest j on ties
    minima = {}
    for j in range(2, n + 1):
        if j % b:
            w = j * c[b] / b - c[j]
            if j % b not in minima or w < minima[j % b][1]:  # smallest part on ties
                minima[j % b] = (j, w)
    graph = ResidueGraph(b, tuple((offset, *minima[offset]) for offset in sorted(minima)))
    path = ()
    if n % b:
        path = shortest_paths(graph).get(n % b, (None, None))[1]
    if path is None or sum(path) > n:
        values, parts = reference_dp(table, n)
        return graph, SolveResult(Partition.from_parts(parts[n]), values[n], "dp")
    partition = Partition.from_parts(path + (b,) * ((n - sum(path)) // b))
    return graph, SolveResult(partition, partition_objective(partition, table), "group_relaxation")


def assert_gr_matches_reference(table, order_seed=0):
    order = list(range(2, table.max_part + 1))
    random.Random(order_seed).shuffle(order)  # grow the records and reuse paths from anywhere
    for n in order:
        graph, result = reference_group_relaxation(table, n)
        assert build_residue_graph(table, n) == graph, n
        if n > graph.modulus:  # every residue is one step from 0: no unreachable target
            assert [offset for offset, _, _ in graph.steps] == list(range(1, graph.modulus)), n
        assert solve_group_relaxation(n, table) == result, n


@settings(max_examples=60, deadline=None)
@given(cs=st.lists(positive, min_size=1, max_size=28), order_seed=st.integers(0, 2**16))
@bound_table_examples
def test_gr_random_tables(cs, order_seed):
    assert_gr_matches_reference(table_of(cs), order_seed)


@settings(max_examples=40, deadline=None)
@given(
    ties=st.lists(st.booleans(), min_size=1, max_size=28),
    order_seed=st.integers(0, 2**16),
)
def test_gr_tie_heavy_tables(ties, order_seed):
    # C_j = j/2 ties every ratio C_j / j of the tie parts and makes
    # their penalties 0: every comparison is an exact tie
    cs = [Fraction(j, 2) if tie else Fraction(j * j, 2 * j + 1)
          for j, tie in enumerate(ties, start=2)]
    assert_gr_matches_reference(table_of(cs), order_seed)


@settings(max_examples=60, deadline=None)
@given(
    ties=st.lists(st.booleans(), min_size=3, max_size=24),
    rate=st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=97),
    bumped=st.integers(0, 100),
    sign=st.sampled_from([-1, 1]),
    exponent=st.integers(12, 20),
    order_seed=st.integers(0, 2**16),
)
def test_gr_best_part_near_ties(ties, rate, bumped, sign, exponent, order_seed):
    # C_j / j = rate for the tie parts, and one part's ratio off it by a
    # relative 10**-exponent: the best part is a near tie the floats
    # cannot order from about 1e-16 down
    cs = [rate * j if tie else rate * j * (1 - Fraction(1, j + 2))
          for j, tie in enumerate(ties, start=2)]
    k = bumped % len(cs)
    cs[k] = rate * (k + 2) * (1 + Fraction(sign, 10**exponent))
    assert_gr_matches_reference(table_of(cs), order_seed)


def penalty_near_tie_table(size, b, rate, pick, sign, exponent):
    # b is the strict best part and every other w_k = k * rate / (k + 2)
    # rises with k, so the smallest part r of a class holds its record;
    # a later classmate j gets w_j = w_r * (1 + sign * 10**-exponent)
    cs = {j: rate * j * (1 - Fraction(1, j + 2)) for j in range(2, size + 2)}
    cs[b] = rate * b
    pairs = [(r, j) for r in range(2, size + 2) if r % b for j in range(r + b, size + 2, b)]
    r, j = pairs[pick % len(pairs)]
    cs[j] = j * rate - (r * rate - cs[r]) * (1 + Fraction(sign, 10**exponent))
    return table_of([cs[k] for k in range(2, size + 2)]), r, j


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(7, 24),
    b=st.integers(2, 5),
    rate=st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=97),
    pick=st.integers(0, 10**6),
    sign=st.sampled_from([-1, 0, 1]),
    exponent=st.integers(12, 20),
    order_seed=st.integers(0, 2**16),
)
def test_gr_penalty_near_ties(size, b, rate, pick, sign, exponent, order_seed):
    table, _, _ = penalty_near_tie_table(size, b, rate, pick, sign, exponent)
    assert_gr_matches_reference(table, order_seed)


def test_gr_near_ties_decide_exactly():
    # ties 1e-17 apart, below float resolution: only the exact
    # comparison orders them
    for sign in (-1, 1):
        cs = [Fraction(1), Fraction(3, 2), Fraction(2) * (1 + Fraction(sign, 10**17))]
        cs += [Fraction(j, 2) * (1 - Fraction(1, j + 2)) for j in range(5, 12)]
        table = table_of(cs)
        assert float(table.c(4) / 4) == 0.5
        assert build_residue_graph(table, 6).modulus == (4 if sign > 0 else 2)
        assert_gr_matches_reference(table)
        table, r, j = penalty_near_tie_table(12, 4, Fraction(1, 2), 3, sign, 17)
        steps = dict((offset, part) for offset, part, _ in build_residue_graph(table, 13).steps)
        assert steps[r % 4] == (j if sign < 0 else r)
        assert_gr_matches_reference(table)


def test_gr_shifting_modulus_table():
    # C_j / j rises to a new maximum at j = 3, 7 and 12, so the modulus
    # changes three times as n grows; swept in several orders
    boost = {3: Fraction(11, 10), 7: Fraction(6, 5), 12: Fraction(5, 4)}
    cs = [Fraction(j, 2) * boost.get(j, 1 - Fraction(1, j + 5)) for j in range(2, 25)]
    for order_seed in range(4):
        assert_gr_matches_reference(table_of(cs), order_seed)
