"""Exact rational arithmetic: generalized harmonic numbers.

Every constant downstream (expected subsample ranges, range variances,
efficiency ratios, knapsack objectives) is built from

    H(n, j) = sum_{i=1}^{n} 1 / i**j,    H(0, j) = 0,

held as an exact fraction.  Denominators of H(n, 1) grow roughly like
lcm(1..n), which overflows any fixed-width integer type near n = 40,
so arbitrary-precision rationals are mandatory, not an optimization.

The sum is split in halves (binary splitting, Haible and Papanikolaou
1998), each an integer numerator over the product of its terms'
denominators, and reduced once at the end.  Nothing is memoized here.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import check_integer

__all__ = ["generalized_harmonic"]


def _split(a: int, b: int, j: int) -> tuple[int, int]:
    """(p, q) with p / q = sum of 1/i**j over a <= i < b and q the product
    of those i**j (q = a**j when a = b); the recursion is log2(b - a) deep."""
    if b - a < 2:
        return b - a, a**j
    (p1, q1), (p2, q2) = _split(a, (a + b) // 2, j), _split((a + b) // 2, b, j)
    return p1 * q2 + p2 * q1, q1 * q2


def generalized_harmonic(n: int, j: int) -> Fraction:
    """Return H(n, j) = sum_{i=1}^{n} 1/i**j, H(0, j) = 0, as an exact Fraction."""
    n, j = check_integer("n", n, 0), check_integer("j", j, 1)
    return Fraction(*_split(1, n + 1, j))
