"""The float-filtered DP against the plain exact DP it replaced.

``reference_dp`` is the exact fill as it stood before the float
filter: every candidate part is compared in Fraction arithmetic at
every capacity.  ``solve_dp`` must return the same partition, objective
and tie-break for every n on random tables, tie-heavy tables, tables
with near ties far below float resolution, and tables whose C_j or
sums leave the normal float range, which must take the exact path.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from grouprange import CoefficientEntry, CoefficientTable, solve_dp
from grouprange import optimizer


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


def filtered(table):
    return optimizer._states[id(table)].filtered


positive = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000)


@settings(max_examples=60, deadline=None)
@given(cs=st.lists(positive, min_size=1, max_size=28), order_seed=st.integers(0, 2**16))
def test_random_tables(cs, order_seed):
    table = table_of(cs)
    assert_matches_reference(table, order_seed)
    assert filtered(table)


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
        assert filtered(table)


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
    assert filtered(table)


@settings(max_examples=40, deadline=None)
@given(
    cs=st.lists(positive, min_size=1, max_size=16),
    scale=st.sampled_from([400, -400, -160]),
    where=st.lists(st.integers(0, 15), min_size=1, max_size=4),
    order_seed=st.integers(0, 2**16),
)
def test_tables_outside_float_range_take_exact_path(cs, scale, where, order_seed):
    # d = 10**400 overflows C_j = d**2 / k_sq, d = 10**-400 underflows
    # it and d = 10**-160 makes it subnormal
    d = Fraction(10) ** scale
    entries = [CoefficientEntry(j, c, c) for j, c in enumerate(cs, start=2)]
    for i in where:
        j = 2 + i % len(cs)
        entries[j - 2] = CoefficientEntry(j, d * cs[j - 2], cs[j - 2])
    table = CoefficientTable("test", tuple(entries))
    assert_matches_reference(table, order_seed)
    assert not filtered(table)


def test_sum_overflow_takes_exact_path():
    # C_2 = 10**308 is a normal float, but the float of (2, 2) overflows
    huge = Fraction(10) ** 154
    table = CoefficientTable("test", (
        CoefficientEntry(2, huge, Fraction(1)),
        CoefficientEntry(3, Fraction(1), Fraction(1)),
        CoefficientEntry(4, Fraction(1), Fraction(1)),
        CoefficientEntry(5, Fraction(1), Fraction(1)),
    ))
    assert_matches_reference(table)
    assert not filtered(table)
    assert solve_dp(4, table).objective == 2 * huge * huge


def test_filter_turns_off_when_the_fill_reaches_a_huge_part():
    # parts 2..5 are ordinary floats; part 6 overflows, so the fill is
    # filtered up to 5 and exact from there on
    cs = [Fraction(1), Fraction(9, 5), Fraction(121, 49), Fraction(125, 41), Fraction(10) ** 800]
    table = table_of(cs + [Fraction(7, 2)] * 4)
    solve_dp(5, table)
    assert filtered(table)
    assert_matches_reference(table)
    assert not filtered(table)
    assert solve_dp(9, table).partition.parts == (6, 3)
