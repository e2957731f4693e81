"""Brute-force partition references for the tests.

``enumerate_admissible`` lists every admissible partition, the oracle
the counts, the solvers and the estimator identities are checked
against over small n.  ``count_unrestricted`` reads p(n) from the
package's pentagonal prefix.
"""

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
