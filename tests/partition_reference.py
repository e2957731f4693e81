"""Brute-force references for the tests.

``enumerate_admissible`` lists every admissible partition, the oracle
the counts, the solvers and the estimator identities are checked
against over small n.  ``pentagonal_prefix`` lists p(0..n) by Euler's
recurrence, the exact reference for the package's Rademacher series,
and ``count_unrestricted`` reads p(n) from it.  ``harmonic_oracle``
sums a generalized harmonic number term by term, the reference for the
harmonic memo, the exponential table's entries, the lemma's ratios and
the solvers' efficiencies.  ``envelope`` is the float h(n) that the
lemma's tail bound rests on.
"""

import bisect
import math
import operator
from fractions import Fraction
from typing import Iterator

from grouprange import Partition


def enumerate_admissible(n: int) -> Iterator[Partition]:
    """Yield every admissible partition of n exactly once.

    Order: descending lexicographic on the descending part tuples, so
    (n) comes first and (2, 2, ..., 2) last when n is even.
    """
    if n < 2:
        raise ValueError(f"enumeration needs n >= 2, got {n}")

    def rec(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for k in range(min(cap, remaining), 1, -1):
            # a leftover of exactly 1 can never be completed
            if remaining - k == 1:
                continue
            for rest in rec(remaining - k, k):
                yield (k, *rest)

    for parts in rec(n, n):
        yield Partition.from_parts(parts)


_BLOCK = 64  # capacities filled per block of the pentagonal recurrence


def pentagonal_prefix(n: int) -> list[int]:
    """[p(0), ..., p(n)] by Euler's pentagonal-number recurrence
        p(m) = sum_{k>=1} (-1)^(k+1) [p(m - k(3k-1)/2) + p(m - k(3k+1)/2)],
    O(n**1.5) integer additions: about 2 s at n = 80,000 on a 2-core host.

    Capacities are filled in blocks m = M..E-1 of _BLOCK.  An offset
    g >= _BLOCK reads p(m - g) with m - g < M, which the earlier blocks
    finished (or p = 0 at a negative argument), so those terms are
    summed for the whole block at once, column by column at C speed;
    only the offsets below _BLOCK run per capacity.
    """
    plus: list[int] = []  # offsets k(3k -+ 1)/2 taken with sign +, k odd
    minus: list[int] = []  # and with sign -, k even
    k = 1
    while k * (3 * k - 1) // 2 <= n:
        (plus if k % 2 else minus).extend((k * (3 * k - 1) // 2, k * (3 * k + 1) // 2))
        k += 1
    near_plus = [g for g in plus if g < _BLOCK]
    near_minus = [g for g in minus if g < _BLOCK]
    far_plus, far_minus = plus[len(near_plus) :], minus[len(near_minus) :]
    # p[_BLOCK + m] = p(m); the leading zeros stand for p at negative m
    p = [0] * _BLOCK + [1]
    for low in range(1, n + 1, _BLOCK):
        high = min(low + _BLOCK, n + 1)
        start, stop = _BLOCK + low, _BLOCK + high  # where p(low..high-1) go

        def block_sum(far: list[int]) -> Iterator[int]:
            reads = [p[start - g : stop - g] for g in far[: bisect.bisect_left(far, high)]]
            return map(sum, zip([0] * (high - low), *reads))

        far_terms = map(operator.sub, block_sum(far_plus), block_sum(far_minus))
        for m, total in zip(range(start, stop), far_terms):
            p.append(total + sum([p[m - g] for g in near_plus]) - sum([p[m - g] for g in near_minus]))
    return p[_BLOCK:]


def count_unrestricted(n: int) -> int:
    return pentagonal_prefix(n)[n]


def harmonic_oracle(n: int, j: int) -> Fraction:
    """H(n, j) = sum of 1 / i**j over i = 1..n, summed directly: shares no
    code with the package's memoized ``generalized_harmonic``."""
    return sum((Fraction(1, i**j) for i in range(1, n + 1)), Fraction(0))


def envelope(n: float) -> float:
    """h(n) = (1 + log(n-1))**2 / (n-1), above C_n / n on the exponential
    table for n > 1 and falling from n = 4 (the lemma's proof)."""
    return (1 + math.log(n - 1)) ** 2 / (n - 1)
