"""Allocation solvers against a brute-force enumeration oracle.

The oracle recomputes every efficiency constant from direct harmonic
sums and maximizes over the full set of admissible partitions, so it
shares no code with the solvers under test.
"""

import functools
import os
import random
import re
import sys
import threading
from fractions import Fraction

import pytest

from grouprange import coefficients
from grouprange import (
    CoefficientEntry,
    Partition,
    ResidueGraph,
    build_residue_graph,
    exponential_table,
    generalized_harmonic,
    load_table,
    partition_objective,
    rule_of_fours,
    shortest_paths,
    solve_closed_form,
    solve_dp,
    solve_group_relaxation,
    verify_lemma,
)
from grouprange.optimizer import _states

from partition_reference import enumerate_admissible, harmonic_oracle


@functools.cache
def efficiency_oracle(j: int) -> Fraction:
    d = harmonic_oracle(j - 1, 1)
    return d * d / harmonic_oracle(j - 1, 2)


def brute_force_optimum(n: int) -> tuple[Fraction, list[tuple[int, ...]]]:
    best = None
    argmax: list[tuple[int, ...]] = []
    for p in enumerate_admissible(n):
        value = sum((efficiency_oracle(j) * m for j, m in p.frequencies), Fraction(0))
        if best is None or value > best:
            best, argmax = value, [p.parts]
        elif value == best:
            argmax.append(p.parts)
    return best, argmax


# -------------------------------------------------------------- dynamic program


def test_dp_frozen_examples(table40):
    assert solve_dp(4, table40).partition.parts == (4,)
    assert solve_dp(4, table40).objective == Fraction(121, 49)
    assert solve_dp(10, table40).partition.parts == (5, 5)
    assert solve_dp(10, table40).objective == Fraction(250, 41)
    r22 = solve_dp(22, table40)
    assert r22.partition.parts == (5, 5, 4, 4, 4)
    assert r22.objective == Fraction(27133, 2009)
    assert r22.method == "dp"


def test_dp_matches_brute_force(table40):
    for n in range(2, 41):
        expected, argmax = brute_force_optimum(n)
        result = solve_dp(n, table40)
        assert result.objective == expected
        assert result.partition.parts in argmax
        if len(argmax) == 1:
            assert result.partition.parts == argmax[0]


def contend(workers: int, work) -> None:
    """Run work(index) for index 0..workers-1 on threads that a barrier
    releases together, with a tiny switch interval so that races
    surface; fail if a thread hangs or raises."""
    barrier = threading.Barrier(workers)
    errors: list[BaseException] = []

    def run(index: int) -> None:
        try:
            barrier.wait(timeout=30)
            work(index)
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "a solver thread hung"
    finally:
        sys.setswitchinterval(interval)
    assert errors == []


def test_dp_shared_cache_under_thread_contention():
    # More threads than cores fill and read three shared tables' DP and
    # residue-graph memos in mixed n order, while others churn private
    # tables through the weakref release; every answer must equal a
    # serial solve.
    shared = [exponential_table(200) for _ in range(3)]
    ns = [200, 7, 133, 2, 170, 19, 41, 12, 185, 3, 97, 200]
    serial_table = exponential_table(200)
    serial = {n: solve_dp(n, serial_table) for n in ns}
    serial_gr = {n: solve_group_relaxation(n, serial_table) for n in ns}
    workers = 2 * (os.cpu_count() or 1) + 2
    results: dict[tuple[int, int, int], object] = {}
    gr_results: dict[tuple[int, int, int], object] = {}

    def run(index: int) -> None:
        order = ns[index % len(ns):] + ns[: index % len(ns)]
        for n in order:
            tables = shared if index % 2 == 0 else [exponential_table(n)]
            for k, table in enumerate(tables):
                if index % 4 < 2:
                    gr_results[index, n, k] = solve_group_relaxation(n, table)
                results[index, n, k] = solve_dp(n, table)

    contend(workers, run)
    assert len(results) == (workers + 1) // 2 * 3 * len(set(ns)) + workers // 2 * len(set(ns))
    for (_, n, _), result in results.items():
        assert result == serial[n]
    assert gr_results
    for (_, n, _), result in gr_results.items():
        assert result == serial_gr[n]


def test_solvers_share_custom_table_state_under_thread_contention():
    # Four threads fill one shared exponential table and one shared
    # random custom table through both solvers, each in its own rotated
    # order of n; every answer must equal a serial solve on a fresh,
    # equal table.  Races, if any, happen while the shared tables first
    # fill, so each of four rounds starts over on new shared tables.
    rng = random.Random(7)
    custom = "j,d,k_sq\n" + "".join(
        f"{j},{rng.randint(1, 8 * j)}/8,{rng.randint(4, 32)}/16\n" for j in range(2, 61)
    )
    makers = [lambda: exponential_table(60), lambda: load_table(custom)]
    ns = [60, 7, 43, 2, 31, 19, 55, 12]
    serial = {}
    for k, make in enumerate(makers):
        fresh = make()
        for n in ns:
            serial[k, n] = solve_dp(n, fresh), solve_group_relaxation(n, fresh)
    workers, rounds = 4, 4
    results: list[tuple[tuple[int, int], object]] = []

    def run(shared: list, index: int) -> None:
        shift = 3 * index % len(ns)
        for n in ns[shift:] + ns[:shift]:
            for k, table in enumerate(shared):
                results.append(((k, n), (solve_dp(n, table), solve_group_relaxation(n, table))))

    for _ in range(rounds):
        contend(workers, functools.partial(run, [make() for make in makers]))
    assert len(results) == rounds * workers * len(ns) * len(makers)
    assert [key for key, result in results if result != serial[key]] == []


def test_lazy_table_under_thread_contention():
    # Threads read the exact entries and the floats of one exponential
    # table, each in its own order, from an empty float memo; every
    # value must equal a serial build, and each entry is one object.
    span = range(2, 301)
    eager = {j: CoefficientEntry(j, generalized_harmonic(j - 1, 1), generalized_harmonic(j - 1, 2))
             for j in span}
    floats = {j: exponential_table(300).c_float(j) for j in span}
    workers, rounds = 4, 4
    for _ in range(rounds):
        with coefficients._float_lock:
            del coefficients._float_c[2:]
            coefficients._sums[:] = [0.0] * 4
        table = exponential_table(300)
        seen: list[tuple[int, object, float]] = []

        def run(index: int) -> None:
            order = list(span)
            random.Random(index).shuffle(order)
            for j in order:
                seen.append((j, table.entry(j), table.c_float(j)))

        contend(workers, run)
        assert len(seen) == workers * len(span)
        assert [j for j, entry, f in seen if entry != eager[j] or f != floats[j]] == []
        assert all(entry is table.entry(j) for j, entry, _ in seen)


def test_dp_tie_prefers_fewer_parts():
    # C_2 = C_3 = 1 and C_4 = 2 make (4) and (2, 2) tie at value 2
    t = load_table("j,d,k_sq\n2,1,1\n3,1,1\n4,2,2\n")
    result = solve_dp(4, t)
    assert result.objective == 2
    assert result.partition.parts == (4,)


def test_dp_tie_prefers_descending_lexicographic():
    # (5, 2) and (4, 3) both score 5; same length, so (5, 2) wins
    t = load_table("j,d,k_sq\n2,1,1\n3,2,2\n4,3,3\n5,4,4\n6,1,10\n7,1,10\n")
    result = solve_dp(7, t)
    assert result.objective == 5
    assert result.partition.parts == (5, 2)


def test_dp_requires_coverage(table40):
    with pytest.raises(ValueError, match="need 2..41"):
        solve_dp(41, table40)
    with pytest.raises(ValueError):
        solve_dp(1, table40)


def test_sizes_must_be_integers():
    # a float n used to answer from a swept table's cache (10.0), fail
    # there with KeyError: 2.5 (10.5), or fail inside range() on a fresh
    # table; load_table read every row past a max_part of 3.5
    import numpy as np

    t = exponential_table(400)
    for n in range(2, 401):
        solve_group_relaxation(n, t)
    state = _states[id(t)]
    record = (state.scanned, state.best, dict(state.minima), state.paths, list(state.opt))
    for n in (10.0, 10.5, Fraction(10)):
        message = rf"^n must be an integer, got {re.escape(repr(n))}$"
        for solve in (solve_dp, solve_group_relaxation, solve_closed_form):
            with pytest.raises(TypeError, match=message):
                solve(n, t)
        with pytest.raises(TypeError, match=message):
            build_residue_graph(t, n)
        with pytest.raises(TypeError, match=message):
            rule_of_fours(n)
    assert (state.scanned, state.best, dict(state.minima), state.paths, list(state.opt)) == record
    text = "j,d,k_sq\n2,1,1\n3,3/2,5/4\n4,11/6,49/36\n5,25/12,205/144\n"
    for call, name, size in [
        (exponential_table, "max_part", 7.5),
        (lambda size: verify_lemma(size, t), "n_max", 100.0),
        (lambda size: load_table(text, max_part=size), "max_part", 3.5),
    ]:
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got {size!r}$"):
            call(size)
    # numpy integers are integers
    for solve in (solve_dp, solve_group_relaxation, solve_closed_form):
        assert solve(np.int64(10), t) == solve(10, t)
    assert build_residue_graph(t, np.int64(10)) == build_residue_graph(t, 10)
    assert rule_of_fours(np.int64(10)) == rule_of_fours(10)
    assert exponential_table(np.int64(7)).max_part == 7
    assert verify_lemma(np.int64(100), t) == verify_lemma(100, t)
    assert load_table(text, max_part=np.int64(3)).max_part == 3


def test_sizes_that_escaped_the_range_rule():
    # a max_part under 2 must not read every row, and a float or str n must
    # be named, not fail inside numpy or at "<" (or, as 2.5, return a number)
    import numpy as np

    from grouprange import asymptotic_admissible, replicate_stream, sample_exponential

    text = "j,d,k_sq\n2,1,1\n3,3/2,5/4\n4,11/6,49/36\n"
    for size in (1, 0, -5):
        with pytest.raises(ValueError, match=rf"^max_part must be >= 2, got {size}$"):
            load_table(text, max_part=size)
    stream = replicate_stream(0, 0)
    with pytest.raises(TypeError, match=r"^n must be an integer, got 3\.0$"):
        sample_exponential(3.0, 1.0, stream)
    for n in ("5", 2.5):
        with pytest.raises(TypeError, match=rf"^n must be an integer, got {re.escape(repr(n))}$"):
            asymptotic_admissible(n)
    # numpy integers are integers
    assert load_table(text, max_part=np.int64(2)).max_part == 2
    assert len(sample_exponential(np.int64(3), 1.0, stream)) == 3
    assert asymptotic_admissible(np.int64(5)) == asymptotic_admissible(5)


def _size_calls():
    """(name, least value, call of one size) for every size argument with a floor."""
    from grouprange import (
        count_admissible, asymptotic_admissible, make_plan, monte_carlo, replicate_stream,
        sample_exponential,
    )

    t = exponential_table(40)
    text = "j,d,k_sq\n2,1,1\n3,3/2,5/4\n4,11/6,49/36\n"
    plan = make_plan(Partition.from_parts([2]), t)
    return {
        "count_admissible": ("n", 0, count_admissible),
        "asymptotic_admissible": ("n", 1, asymptotic_admissible),
        "generalized_harmonic n": ("n", 0, lambda n: generalized_harmonic(n, 1)),
        "generalized_harmonic j": ("j", 1, lambda j: generalized_harmonic(3, j)),
        "exponential_table": ("max_part", 2, exponential_table),
        "load_table": ("max_part", 2, lambda size: load_table(text, max_part=size)),
        "solve_dp": ("n", 2, lambda n: solve_dp(n, t)),
        "solve_group_relaxation": ("n", 2, lambda n: solve_group_relaxation(n, t)),
        "solve_closed_form": ("n", 2, lambda n: solve_closed_form(n, t)),
        "rule_of_fours": ("n", 2, rule_of_fours),
        "verify_lemma": ("n_max", 34, lambda n_max: verify_lemma(n_max, t)),
        "sample_exponential": ("n", 1, lambda n: sample_exponential(n, 1.0, replicate_stream(0, 0))),
        "monte_carlo": ("replicates", 1, lambda reps: monte_carlo(plan, 1.0, reps, 0)),
    }


@pytest.mark.parametrize("site", list(_size_calls()))
def test_each_size_admits_its_least_value(site):
    # the floor itself is taken and the integer below it refused, in the
    # one form every bound shares
    name, low, call = _size_calls()[site]
    call(low)
    with pytest.raises(ValueError, match=rf"^{name} must be >= {low}, got {low - 1}$"):
        call(low - 1)


def test_check_integer_bounds_both_ends():
    from grouprange.partitions import check_integer

    assert check_integer("k", 5, 5, 5) == 5
    assert check_integer("k", -7) == -7  # no bound, no range check
    with pytest.raises(ValueError, match=r"^k must be >= 5, got 4$"):
        check_integer("k", 4, 5, 5)
    with pytest.raises(ValueError, match=r"^k must be <= 5, got 6$"):
        check_integer("k", 6, 5, 5)
    with pytest.raises(ValueError, match=r"^k must be <= 5, got 6$"):
        check_integer("k", 6, high=5)


# --------------------------------------------------------------- residue graph


def test_graph_shape_for_exponential(table40):
    g = build_residue_graph(table40, 22)
    assert g.modulus == 4
    # one generator per nonzero offset mod 4, ascending
    assert [offset for offset, _, _ in g.steps] == [1, 2, 3]


def test_graph_frozen_edge_weights(table40):
    g = build_residue_graph(table40, 22)
    assert g.steps == (
        (1, 5, Fraction(305, 8036)),
        (2, 6, Fraction(73285, 516362)),
        (3, 3, Fraction(51, 980)),
    )


def test_graph_weights_match_definition(table40):
    # each step is the cheapest part j <= n of its class, smallest part
    # on ties, at penalty w_j = j * C_b / b - C_j >= 0
    for n in range(2, 41):
        b = max(range(2, n + 1), key=lambda j: (efficiency_oracle(j) / j, -j))
        expected = []
        for offset in range(1, b):
            classmates = [
                (j * efficiency_oracle(b) / b - efficiency_oracle(j), j)
                for j in range(2, n + 1)
                if j % b == offset
            ]
            if classmates:
                w, j = min(classmates)
                assert w >= 0
                expected.append((offset, j, w))
        g = build_residue_graph(table40, n)
        assert (g.modulus, g.steps) == (b, tuple(expected))


def test_graph_keeps_class_minimum(table40):
    # part 6 undercuts part 2 on the +2 offset, so the step for offset 2
    # carries part 6, not the smaller part 2
    g = build_residue_graph(table40, 22)
    w2 = 2 * table40.c(4) / 4 - table40.c(2)
    assert w2 == Fraction(23, 98)
    offset, part, penalty = g.steps[1]
    assert (offset, part) == (2, 6)
    assert penalty == 6 * table40.c(4) / 4 - table40.c(6) < w2


def test_graph_small_n():
    t = exponential_table(5)
    g = build_residue_graph(t, 5)
    assert g.modulus == 4  # C_4/4 = 121/196 beats C_5/5 = 25/41
    assert [(offset, part) for offset, part, _ in g.steps] == [(1, 5), (2, 2), (3, 3)]
    g2 = build_residue_graph(t, 2)
    assert g2.modulus == 2
    assert g2.steps == ()


def test_graph_modulus_tie_takes_smallest():
    # C_2/2 = C_4/4 = 1/2: the smaller part wins the tie
    t = load_table("j,d,k_sq\n2,1,1\n3,1,1\n4,2,2\n")
    assert build_residue_graph(t, 4).modulus == 2


def test_shortest_paths_frozen(table40):
    g = build_residue_graph(table40, 22)
    paths = shortest_paths(g)
    assert paths[0] == (0, ())
    assert paths[1] == (Fraction(305, 8036), (5,))
    assert paths[2] == (Fraction(610, 8036), (5, 5))
    assert paths[3] == (Fraction(51, 980), (3,))


def test_shortest_paths_skips_a_stale_heap_entry():
    # vertex 2 is first pushed at penalty 3 in one hop (part 6), then
    # improved to 2 by 5 + 5: the first heap entry goes stale
    graph = ResidueGraph(4, ((1, 5, Fraction(1)), (2, 6, Fraction(3)), (3, 3, Fraction(1))))
    assert shortest_paths(graph) == {0: (0, ()), 1: (1, (5,)), 2: (2, (5, 5)), 3: (1, (3,))}


def test_shortest_paths_prefers_fewer_parts_on_a_tie():
    # 6 and 5 + 5 both reach vertex 2 at penalty 2: the one part wins
    graph = ResidueGraph(4, ((1, 5, Fraction(1)), (2, 6, Fraction(2)), (3, 3, Fraction(1))))
    assert shortest_paths(graph) == {0: (0, ()), 1: (1, (5,)), 2: (2, (6,)), 3: (1, (3,))}


# ------------------------------------------------------------ sweep memo


def shifting_best_part_table():
    # C_j / j rises to a new maximum at j = 3, 7 and 12, so the modulus
    # b of the residue graph changes three times as n grows
    rows = ["j,d,k_sq"]
    for j in range(2, 25):
        c = Fraction(j, 2) * {3: Fraction(11, 10), 7: Fraction(6, 5), 12: Fraction(5, 4)}.get(
            j, Fraction(1) - Fraction(1, j + 5))
        rows.append(f"{j},{c},{c}")
    return load_table("\n".join(rows) + "\n")


def test_best_part_changes_on_shifting_table():
    t = shifting_best_part_table()
    moduli = [build_residue_graph(t, n).modulus for n in range(2, 25)]
    assert moduli == [2] + [3] * 4 + [7] * 5 + [12] * 13


@pytest.mark.parametrize("make", [lambda: exponential_table(120), shifting_best_part_table])
def test_sweep_matches_fresh_tables(make):
    # one table swept upward, then downward, then in mixed order, must
    # give what a fresh table gives for every n
    expected = {}
    for n in range(2, make().max_part + 1):
        fresh = make()
        expected[n] = build_residue_graph(fresh, n), solve_group_relaxation(n, fresh)
    swept = make()
    order = list(expected)
    for n in order + order[::-1] + order[1::7] + order[::5]:
        assert (build_residue_graph(swept, n), solve_group_relaxation(n, swept)) == expected[n]


def test_descending_sweep_reuses_the_scan():
    # on the exponential table the best part 4 and the class minima at
    # parts 5, 6 and 3 lie at or below every n >= 6 (at n = 6 part 6, the
    # minimum of offset 2, equals n): a sweep down from 400 reads the
    # scan of 2..400 and scans no part again
    swept = exponential_table(400)
    for n in range(2, 401):
        build_residue_graph(swept, n)
    state = _states[id(swept)]
    for n in range(400, 5, -1):
        fresh = exponential_table(n)
        expected = build_residue_graph(fresh, n), solve_group_relaxation(n, fresh)
        assert (build_residue_graph(swept, n), solve_group_relaxation(n, swept)) == expected
        assert state.scanned == 400, n


def test_exact_reads_on_fresh_exponential_tables(monkeypatch):
    # the float filters send only near-ties to exact C_j, so these counts
    # pin the optimizer's exact work, which no answer shows
    reads = []
    c = coefficients.CoefficientTable.c
    monkeypatch.setattr(coefficients.CoefficientTable, "c", lambda t, j: reads.append(j) or c(t, j))
    swept = exponential_table(400)
    for n in range(2, 401):
        build_residue_graph(swept, n)
    assert len(reads) == 10
    reads.clear()
    for n in range(400, 5, -1):
        build_residue_graph(swept, n)
    assert reads == []
    solve_dp(400, exponential_table(400))
    assert len(reads) == 693


def test_smaller_n_rescans_below_a_class_minimum():
    # part 6 undercuts part 2 on offset 2, so n = 5 cannot read the scan
    # of 2..6 and scans 2..5 again
    t = exponential_table(6)
    assert build_residue_graph(t, 6) == build_residue_graph(exponential_table(6), 6)
    state = _states[id(t)]
    assert (state.scanned, state.minima[2][0]) == (6, 6)
    assert build_residue_graph(t, 5) == build_residue_graph(exponential_table(5), 5)
    assert (state.scanned, state.minima[2][0]) == (5, 2)


def test_smallest_n_twice_on_a_fresh_table():
    # n = 2 has the one part 2 and no class minimum: the second call
    # reads a scan whose minima are empty
    t = exponential_table(2)
    assert build_residue_graph(t, 2) == ResidueGraph(2, ())
    assert _states[id(t)].minima == {}
    assert build_residue_graph(t, 2) == ResidueGraph(2, ())


# ------------------------------------------------------------ group relaxation


def test_gr_frozen_example(table40):
    result = solve_group_relaxation(22, table40)
    assert result.method == "group_relaxation"
    assert result.partition.parts == (5, 5, 4, 4, 4)
    assert result.partition.frequencies == ((4, 3), (5, 2))  # f_4 recovered, 5s on the path
    assert result.objective == Fraction(27133, 2009)


def test_gr_small_n(table40):
    for n in (2, 3, 4, 5):
        result = solve_group_relaxation(n, table40)
        assert result.partition.parts == (n,)
        assert result.method == "group_relaxation"


def test_gr_fallback_at_six(table40):
    # the relaxation wants two 5s (f_4 = -1), so n = 6 falls back
    result = solve_group_relaxation(6, table40)
    assert result.method == "dp"
    assert result.partition.parts == (3, 3)
    assert result.objective == Fraction(18, 5)


def test_gr_agrees_with_dp(table100):
    for n in range(2, 101):
        assert solve_group_relaxation(n, table100).objective == solve_dp(n, table100).objective


def test_gr_fallback_on_custom_table():
    # b = 5; the cheapest route to residue 2 stacks two 6s, overshooting
    # n = 7, so f_5 < 0 forces the dynamic program, which finds (5, 2)
    t = load_table("j,d,k_sq\n2,2,2\n3,3,3\n4,4,4\n5,10,10\n6,11.9,11.9\n7,10,10\n")
    g = build_residue_graph(t, 7)
    assert g.modulus == 5
    assert shortest_paths(g)[2] == (Fraction(1, 5), (6, 6))
    result = solve_group_relaxation(7, t)
    assert result.method == "dp"
    assert result.partition.parts == (5, 2)
    assert result.objective == 12


# ------------------------------------------------------------------ closed form


def test_rule_of_fours_frozen():
    assert rule_of_fours(2).parts == (2,)
    assert rule_of_fours(3).parts == (3,)
    assert rule_of_fours(4).parts == (4,)
    assert rule_of_fours(5).parts == (5,)
    assert rule_of_fours(6).parts == (3, 3)
    assert rule_of_fours(7).parts == (4, 3)
    assert rule_of_fours(8).parts == (4, 4)
    assert rule_of_fours(9).parts == (5, 4)
    assert rule_of_fours(10).parts == (5, 5)
    assert rule_of_fours(11).parts == (4, 4, 3)
    assert rule_of_fours(22).parts == (5, 5, 4, 4, 4)
    assert rule_of_fours(100).parts == (4,) * 25


def test_rule_of_fours_structure():
    for n in range(7, 401):
        p = rule_of_fours(n)
        assert p.n == n
        q, r = divmod(n, 4)
        if r == 0:
            assert dict(p.frequencies) == {4: q}
        elif r in (1, 2):
            assert dict(p.frequencies) == ({5: r} if q == r else {4: q - r, 5: r})
        else:
            assert dict(p.frequencies) == {3: 1, 4: q}


def test_rule_of_fours_rejects_small_n():
    with pytest.raises(ValueError):
        rule_of_fours(1)


def test_rule_matches_dp_objective(table400):
    for n in range(2, 401):
        closed = solve_closed_form(n, table400)
        assert closed.method == "closed_form"
        assert closed.partition == rule_of_fours(n)
        assert closed.objective == partition_objective(closed.partition, table400)
        assert closed.objective == solve_dp(n, table400).objective


# ------------------------------------------------------------------- objective


def test_partition_objective_frozen(table40):
    p = Partition.from_parts([5, 5, 4, 4, 4])
    assert partition_objective(p, table40) == Fraction(27133, 2009)
    assert partition_objective(Partition.from_parts([2]), table40) == 1
