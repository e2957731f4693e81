"""The float-filtered, dominance-pruned DP against the plain exact DP.

``reference_dp`` is the exact fill as it stood before the float
filter and the dominance pruning: every part is compared in Fraction
arithmetic at every capacity.  ``solve_dp`` must return the same
partition, objective and tie-break for every n on random tables,
tie-heavy tables, tables with near ties far below float resolution,
convex tables (C_j / j increasing, the shape the filter exists for)
and tables whose d and k_sq sit at the ends of the range
``CoefficientEntry`` accepts.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grouprange import CoefficientEntry, CoefficientTable, exponential_table, solve_dp
from grouprange.optimizer import _states


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


def test_exponential_table_prunes_to_parts_2_to_5():
    # every part from 6 on splits into a better allocation, the rule of
    # fours, so the fill at 600 tries five parts where it tried 599
    table = exponential_table(600)
    solve_dp(600, table)
    state = _states[id(table)]
    assert state.undominated == [2, 3, 4, 5]
    assert state.runs == [range(2, 6)]


positive = st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=1000)


@settings(max_examples=60, deadline=None)
@given(cs=st.lists(positive, min_size=1, max_size=28), order_seed=st.integers(0, 2**16))
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
