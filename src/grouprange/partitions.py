"""Admissible integer partitions: representation and counting.

A partition of n is *admissible* when every part is at least 2.  A
subsample of size 1 has range zero, so it contributes nothing to a
weighted-range estimator; admissibility is exactly the condition that
every subsample carries information.

Partitions are stored in frequency form (part size -> multiplicity)
and rendered as descending part tuples, e.g. 22 = (5, 5, 4, 4, 4).
The number of admissible partitions is P(n) = p(n) - p(n-1), where
p(n) is the unrestricted partition count: striking one part equal to
1 gives a bijection between partitions of n containing a 1 and
partitions of n-1.  Both come from one prefix of Euler's pentagonal
recurrence, O(n**1.5) big-integer additions summed block-wise at C
speed: under 0.1 s at n = 8000 and about 1.5 s at n = 50,000 on a
2-core host.  ``count_admissible`` takes any n; the CLI's ``count``
stops at 50,000.  Enumeration is left to the tests, as the brute-force
reference the counts and the solvers are checked against.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections import Counter
from typing import Iterable, Iterator, Mapping

__all__ = ["Partition", "count_admissible", "asymptotic_admissible"]


class _Frozen:
    """Base of the validated records: __init__ sets the fields, nothing changes them.

    Identity is every field, in the order __init__ sets them: a record
    equals only its own class with equal fields, hashes as the tuple of
    their values and prints as ``Name(field=value, ...)``.
    """

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class Partition(_Frozen):
    """An admissible partition of ``n``, frequency representation.

    ``frequencies`` is a tuple of (part, multiplicity) pairs sorted by
    strictly increasing part size, which makes instances hashable and
    canonical: two equal partitions compare equal.
    """

    def __init__(self, n: int, frequencies: tuple[tuple[int, int], ...]) -> None:
        if n < 2:
            raise ValueError(f"admissible partitions need n >= 2, got {n}")
        total = 0
        previous = 1
        for part, mult in frequencies:
            if part < 2:
                raise ValueError(f"part {part} is inadmissible (every part must be >= 2)")
            if part <= previous:
                raise ValueError("frequencies must be sorted by strictly increasing part")
            if mult < 1:
                raise ValueError(f"multiplicity {mult} for part {part} must be >= 1")
            total += part * mult
            previous = part
        if total != n:
            raise ValueError(f"parts sum to {total}, expected n = {n}")
        vars(self).update(n=n, frequencies=frequencies)

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "Partition":
        return cls.from_frequencies(Counter(parts))

    @classmethod
    def from_frequencies(cls, frequencies: Mapping[int, int]) -> "Partition":
        items = tuple(sorted((p, m) for p, m in frequencies.items() if m != 0))
        return cls(sum(p * m for p, m in items), items)

    @property
    def parts(self) -> tuple[int, ...]:
        """Parts in canonical descending order, e.g. (5, 5, 4, 4, 4)."""
        out: list[int] = []
        for part, mult in reversed(self.frequencies):
            out.extend([part] * mult)
        return tuple(out)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


_BLOCK = 64  # capacities filled per block of the pentagonal recurrence


def _pentagonal_prefix(n: int) -> list[int]:
    """[p(0), ..., p(n)] by Euler's pentagonal-number recurrence
        p(m) = sum_{k>=1} (-1)^(k+1) [p(m - k(3k-1)/2) + p(m - k(3k+1)/2)],
    O(n**1.5) integer additions.

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


def count_admissible(n: int) -> int:
    """Exact number of partitions of n with every part >= 2.

    P(n) = p(n) - p(n-1), both read from one prefix; P(0) = 1 counts
    the empty partition.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1
    p = _pentagonal_prefix(n)
    return p[n] - p[n - 1]


def asymptotic_admissible(n: int) -> float:
    """First-order growth estimate of the admissible count:
    pi / (12 sqrt(2) n**1.5) * exp(pi sqrt(2n/3))."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.pi / (12 * math.sqrt(2) * n**1.5) * math.exp(math.pi * math.sqrt(2 * n / 3))

