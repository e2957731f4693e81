"""Optimal allocation of n observations into subsample ranges.

The problem is an equality-constrained unbounded knapsack: choose
multiplicities f_j >= 0 of parts j in {2..n} to

    maximize   sum_j C_j * f_j
    subject to sum_j j * f_j = n,

where C_j is the efficiency of a size-j subsample (coefficients
module).  The maximal objective equals 1 / Var(sigma_hat) in units of
sigma**2, so maximizing it minimizes the estimator variance.

Three independent solvers are provided; their objectives must agree.

solve_dp
    Exact dynamic program over capacities 0..n (``_dp_extend``).  Ties
    go to fewer parts, then to the descending lexicographic part tuple.

solve_group_relaxation
    Drop integrality of one variable.  Let b maximize C_j / j (the
    best efficiency per consumed observation; b = 4 for the
    exponential table).  Relax f_b to be any integer; the remaining
    problem is equivalent to a shortest path on the residue graph
    modulo b: vertices are residues 0..b-1, an edge for part j moves
    v -> (v + j) mod b at penalty w_j = j * C_b / b - C_j >= 0, the
    value lost by covering j observations with part j instead of
    (fractional) copies of part b.  A minimum-penalty path from 0 to
    n mod b fixes the off-b multiplicities, and
    f_b = (n - sum of path parts) / b.  Tables hold every part from 2
    and b <= n, so for n > b the parts 2..b-1 and b+1 put every residue
    one step from 0, and n = b has residue 0.  The one fallback is
    f_b < 0: solve_dp answers, labeled "dp" (only n = 6 at n <= 400 on
    the exponential table); otherwise the relaxation's answer is exact.
    Its tie-break is its own: the smallest best part on ratio ties, then
    the path with the fewest parts.  On a table with tied optima its
    maximizer can differ from solve_dp's, with the same objective: at
    n = 11 on C_j = j/2, (3, 2, 2, 2, 2) against (11,).

solve_closed_form
    The rule of fours (``rule_of_fours``), optimal on the exponential
    table.
"""

from __future__ import annotations

import heapq
import math
import threading
import weakref
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .coefficients import FLOAT_TIE, CoefficientTable
from .partitions import Partition, check_integer

__all__ = [
    "ResidueGraph",
    "SolveResult",
    "build_residue_graph",
    "shortest_paths",
    "solve_dp",
    "solve_group_relaxation",
    "solve_closed_form",
    "rule_of_fours",
    "partition_objective",
]


class SolveResult(NamedTuple):
    """An optimal allocation together with the method that produced it."""

    partition: Partition
    objective: Fraction
    method: str  # "dp" | "group_relaxation" | "closed_form"


class ResidueGraph(NamedTuple):
    """Residue graph modulo the best part size b, held as its generators.

    From every vertex v of Z_b a part j leads to (v + j) mod b at
    penalty w_j, so the graph is the same seen from each vertex and only
    the cheapest part of a congruence class can lie on a shortest path.
    ``steps`` holds one (offset, part, penalty) per offset 1..b-1 that
    some part j <= n reaches, ascending by offset: the class minimum of
    w_j, smallest part on ties.
    """

    modulus: int
    steps: tuple[tuple[int, int, Fraction], ...]


def partition_objective(partition: Partition, table: CoefficientTable) -> Fraction:
    """Exact objective sum_j C_j * f_j of a partition under a table."""
    first, *rest = [table.c(j) * mult for j, mult in partition.frequencies]
    return sum(rest, first)


def _require_coverage(table: CoefficientTable, n: int) -> int:
    n = check_integer("n", n, 2)
    if table.max_part < n:
        raise ValueError(f"table spans parts 2..{table.max_part}, need 2..{n}")
    return n


# Everything the solvers reuse for one table object lives in one
# record, keyed by the table's identity and released through a weakref
# finalizer, so ascending sweeps n = 2..N fill one DP and scan each part
# for the residue graph once.
class _TableState:
    __slots__ = ("opt", "fv", "fc", "parts", "lead", "scanned", "best", "minima", "paths")

    def __init__(self) -> None:
        # DP by capacity: opt[w] = (exact value, -part count, last part j,
        # run m), None when infeasible, where the optimum of w ends in m
        # parts j and the rest is the optimum of w - j * m; fv[w] the
        # value's float (-inf when infeasible); fc[j] = table.c_float(j),
        # read by every scan.
        self.opt: list[tuple[Fraction, int, int, int] | None] = [(Fraction(0), 0, 0, 0), None]
        self.fv: list[float] = [0.0, -math.inf]
        self.fc: list[float] = [0.0, 0.0]
        # The filled capacities j whose optimum is (j,), ascending: the
        # parts no filled capacity dominates; lead the argmax of C_j / j
        # over the filled capacities, latest on ties (0 before any), kept
        # apart from the relaxation's best so that each solver checks the other.
        self.parts: list[int] = []
        self.lead = 0
        # Residue graph over the parts 2..scanned: best is the argmax b of
        # C_j / j (smallest j on ties, 0 before any scan), minima[offset] =
        # (j, w_j, float(w_j)) the minimum of the class j = offset (mod b),
        # smallest j on ties; paths: the graph's paths from 0, kept until
        # _scan changes the graph (None then), so Dijkstra runs once per graph.
        self.scanned = 1
        self.best = 0
        self.minima: dict[int, tuple[int, Fraction, float]] = {}
        self.paths: dict[int, tuple[Fraction, tuple[int, ...]]] | None = None


_states: dict[int, _TableState] = {}
_lock = threading.Lock()


def _table_state(table: CoefficientTable) -> _TableState:
    # the caller holds _lock
    key = id(table)
    state = _states.get(key)
    if state is None:
        state = _TableState()
        _states[key] = state
        weakref.finalize(table, _states.pop, key, None)
    return state


def _floats(state: _TableState, table: CoefficientTable, n: int) -> list[float]:
    fc = state.fc
    if len(fc) <= n:
        fc.extend(table.c_float(j) for j in range(len(fc), n + 1))
    return fc


def _scan(state: _TableState, table: CoefficientTable, n: int) -> None:
    """Bring the best part and the class minima to the parts 2..n.

    Each part is scanned once, so an ascending sweep n = 2..N costs O(N)
    float operations.  Below the parts scanned, the state still holds
    when the best part and every class minimum are <= n (every n >= 6 on
    the exponential table): an argmax or argmin over 2..N that lies in
    2..n is also the one over 2..n, smallest part on ties; otherwise the
    scan starts over from part 2.
    """
    if n < state.scanned:
        if state.best <= n and all(j <= n for j, _, _ in state.minima.values()):
            return
        state.scanned, state.best, state.minima, state.paths = 1, 0, {}, None
    fc, b = _floats(state, table, n), state.best
    ratio = fc[b] / b if b else 0.0
    for j in range(state.scanned + 1, n + 1):
        r = fc[j] / j
        if r > ratio * (1 + FLOAT_TIE) or (
            r >= ratio * (1 - FLOAT_TIE) and table.c(j) / j > table.c(b) / b  # smallest j on ties
        ):
            b, ratio = j, r
    if b != state.best:  # a new modulus: its classes are scanned from part 2
        state.scanned, state.best, state.minima, state.paths = 1, b, {}, None
    # b maximizes C_j / j over 2..n, so every w_j with j <= n is >= 0.
    # w_j is a difference, so its float error is absolute: below
    # (FLOAT_C_ERROR + 5 * 2**-53) * (j * C_b / b + C_j), the minimum's
    # float included (its w is at most r * C_b / b with r < j).
    per_unit, minima = fc[b] / b, state.minima
    for j in range(state.scanned + 1, n + 1):
        offset = j % b
        if not offset:  # self loops never help a shortest path
            continue
        w, known = j * per_unit - fc[j], minima.get(offset)
        margin = FLOAT_TIE * (j * per_unit + fc[j])
        if known and w > known[2] + margin:
            continue
        exact = j * table.c(b) / b - table.c(j)
        if not known or w < known[2] - margin or exact < known[1]:  # smallest part on ties
            minima[offset], state.paths = (j, exact, float(exact)), None
    state.scanned = n


def build_residue_graph(table: CoefficientTable, n: int) -> ResidueGraph:
    """Residue graph for allocating n observations under a table."""
    n = _require_coverage(table, n)
    with _lock:
        state = _table_state(table)
        _scan(state, table, n)
        return _graph(state)


def _graph(state: _TableState) -> ResidueGraph:  # the caller holds _lock
    steps = tuple((offset, j, w) for offset, (j, w, _) in sorted(state.minima.items()))
    return ResidueGraph(state.best, steps)


def shortest_paths(graph: ResidueGraph) -> dict[int, tuple[Fraction, tuple[int, ...]]]:
    """Minimum-penalty paths from vertex 0 to every reachable vertex.

    Returns target -> (total weight, parts used, descending).  Ties in
    total weight prefer fewer parts, as the solvers' tie-break does.
    Every vertex has the same steps, so these paths, shifted, are the
    paths from any other vertex.
    """
    dist: dict[int, tuple[Fraction, int, tuple[int, ...]]] = {0: (Fraction(0), 0, ())}
    heap: list[tuple[Fraction, int, int]] = [(Fraction(0), 0, 0)]
    while heap:
        d, hops, v = heapq.heappop(heap)
        if (d, hops) != dist[v][:2]:  # stale: pushes only ever improve dist[v]
            continue
        for offset, part, penalty in graph.steps:
            target = (v + offset) % graph.modulus
            cand = (d + penalty, hops + 1)
            known = dist.get(target)
            if known is None or cand < known[:2]:
                parts = tuple(sorted(dist[v][2] + (part,), reverse=True))
                dist[target] = (cand[0], cand[1], parts)
                heapq.heappush(heap, (cand[0], cand[1], target))
    return {v: (d, parts) for v, (d, _, parts) in dist.items()}


def _dp_extend(state: _TableState, n: int, table: CoefficientTable) -> None:
    """Fill capacities len(state.opt)..n.

    Capacity w keeps one step: its largest candidate (value, -part count,
    j) over the parts j it tries, and the run m of j's that ends the walk
    back from w.  That is the tie-break by fewer parts, then descending
    lexicographic.  Among the maximizers with the fewest parts take the
    lexicographically greatest, with largest part p.  Without p it is an
    optimum of w - p with the fewest parts, so j = p ties the winner; a
    tied j > p would give a tied maximizer with a part above p, so p is
    the largest tied j.  By induction opt[w - p] is that maximizer
    without p, whose parts are all <= p: the walk yields descending runs.

    Dominance: once capacity j is filled with parts other than (j,),
    its value > C_j strictly, since a tie would have kept the one-part
    (j,).  Swapping part j for that optimum then strictly improves every
    allocation that uses j, so no exact maximizer of any capacity does,
    and j leaves the candidates for good.  Capacity w tries only the
    undominated parts below w, the ascending list state.parts, plus w
    itself: [2, 3, 4, 5] plus w on the exponential table, every part on
    a convex one.  A tied part stays.  A fill costs O(n * u) float
    operations for u undominated parts, O(n**2) at worst, and about one
    rational addition per capacity.

    LP bound (Gilmore and Gomory, 1966): a partition of w is worth
    sum_j (C_j / j) * j * f_j <= w * max_{j <= w} C_j / j.  state.lead
    holds that argmax, so when C_w / w >= C_lead / lead, (w,) meets the
    bound and, with one part, wins every tie: the capacity is filled in
    O(1), so a convex table (C_j / j rising) and an all-tied one fill in
    O(n).  Ratios compare as in _scan, floats first and exact within
    FLOAT_TIE, and fv[w] is float(C_w), as the filter below needs.

    Float filter: fv[k] = float(opt[k][0]) is within a relative u = 2**-53
    and fc[j] within delta = FLOAT_C_ERROR = 1e-14 (u on a loaded table),
    and one float addition of two nonnegative terms follows, so a float
    candidate fv[w-j] + fc[j] lies within a factor (1 +- delta)(1 +- u)
    of its exact value.  An exact maximizer's float is therefore at least
    (1 - 2 * (delta + u)) times the float best, and the filter keeps every
    candidate within FLOAT_TIE, about 4 * 10**4 times that bound: all exact
    maximizers, ties included, reach the exact comparison, and the
    result equals the plain exact fill's.  The bound needs
    normal floats, which ``CoefficientEntry``'s bounds on d and k_sq
    guarantee for every C_j, value and sum.  Capacity 1 is infeasible
    and its float -inf keeps it out of every candidate list.
    """
    opt, fv, fc, parts, lead = state.opt, state.fv, _floats(state, table, n), state.parts, state.lead
    bound = fc[lead] / lead if lead else 0.0  # the lead's float ratio
    for w in range(len(opt), n + 1):
        ratio = fc[w] / w
        if ratio >= bound * (1 - FLOAT_TIE) and (
            ratio > bound * (1 + FLOAT_TIE) or table.c(w) / w >= table.c(lead) / lead
        ):
            state.lead, lead, bound = w, w, ratio
            best = (table.c(w), -1, w, 1)  # (w,) reaches the LP bound in one part
        else:
            tried = (*parts, w)  # the undominated parts ascending, then w
            floats = [fv[w - j] + fc[j] for j in tried]
            floor = max(floats) * (1 - FLOAT_TIE)
            value, count, j = max(
                (opt[w - j][0] + table.c(j), opt[w - j][1] - 1, j)
                for j, f in zip(tried, floats) if f >= floor
            )
            best = (value, count, j, opt[w - j][3] + 1 if opt[w - j][2] == j else 1)
        opt.append(best)
        fv.append(float(best[0]))
        if best[1] == -1:
            parts.append(w)


def solve_dp(n: int, table: CoefficientTable) -> SolveResult:
    """Exact optimum by dynamic programming over capacities 0..n."""
    n = _require_coverage(table, n)
    with _lock:
        state = _table_state(table)
        _dp_extend(state, n, table)
        # n >= 2 is always feasible (greedy 2s and one 3 cover any n)
        value, pairs, w = state.opt[n][0], [], n
        while w:  # the optimum of w ends in a run of m parts j, its largest
            pairs.append(state.opt[w][2:])  # (j, m)
            w -= math.prod(pairs[-1])
    return SolveResult(Partition(n, pairs[::-1]), value, "dp")


def solve_group_relaxation(n: int, table: CoefficientTable) -> SolveResult:
    """Group relaxation: residue-graph shortest path, DP fallback."""
    n = _require_coverage(table, n)
    with _lock:
        state = _table_state(table)
        _scan(state, table, n)
        b, r = state.best, n % state.best
        if r != 0 and state.paths is None:
            state.paths = shortest_paths(_graph(state))
        path_parts = state.paths[r][1] if r != 0 else ()

    f_b, leftover = divmod(n - sum(path_parts), b)
    assert leftover == 0  # path length is congruent to r by construction
    if f_b < 0:
        return solve_dp(n, table)

    # no path part is a multiple of b: self loops never help
    partition = Partition.from_frequencies({**Counter(path_parts), b: f_b})
    return SolveResult(partition, partition_objective(partition, table), "group_relaxation")


def rule_of_fours(n: int) -> Partition:
    """Closed-form optimum for the exponential distribution.

    Parts of size 4 everywhere, with the remainder r = n mod 4 taken
    up by r parts of size 5 (r = 1, 2) or one part of size 3 (r = 3);
    (n) itself for 2 <= n <= 5, and (3, 3) for n = 6.
    """
    n = check_integer("n", n, 2)
    if n <= 5:
        return Partition.from_parts([n])
    if n == 6:
        return Partition.from_parts([3, 3])
    q, r = divmod(n, 4)
    if r == 0:
        freq = {4: q}
    elif r in (1, 2):
        freq = {4: q - r, 5: r}  # q >= r holds for every n >= 7
    else:
        freq = {3: 1, 4: q}
    return Partition.from_frequencies(freq)


def solve_closed_form(n: int, table: CoefficientTable) -> SolveResult:
    """The rule of fours and its objective under a table."""
    partition = rule_of_fours(_require_coverage(table, n))
    return SolveResult(partition, partition_objective(partition, table), "closed_form")
