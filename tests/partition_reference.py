"""Brute-force references for the tests.

``enumerate_admissible`` lists every admissible partition, the oracle
the counts, the solvers and the estimator identities are checked
against over small n.  ``count_unrestricted`` reads p(n) from the
package's pentagonal prefix.  ``harmonic_oracle`` sums a generalized
harmonic number term by term, the reference for the harmonic memo, the
exponential table's entries, the lemma's ratios and the solvers'
efficiencies.
"""

from fractions import Fraction
from typing import Iterator

from grouprange import Partition
from grouprange.partitions import _pentagonal_prefix


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


def count_unrestricted(n: int) -> int:
    return _pentagonal_prefix(n)[n]


def harmonic_oracle(n: int, j: int) -> Fraction:
    """H(n, j) = sum of 1 / i**j over i = 1..n, summed directly: shares no
    code with the package's memoized ``generalized_harmonic``."""
    return sum((Fraction(1, i**j) for i in range(1, n + 1)), Fraction(0))
