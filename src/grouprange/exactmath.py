"""Exact rational arithmetic: generalized harmonic numbers.

Every constant downstream (expected subsample ranges, range variances,
efficiency ratios, knapsack objectives) is built from

    H(n, j) = sum_{i=1}^{n} 1 / i**j,    H(0, j) = 0,

held as an exact fraction.  Denominators of H(n, 1) grow roughly like
lcm(1..n), which overflows any fixed-width integer type near n = 40,
so arbitrary-precision rationals are mandatory, not an optimization.

Values are memoized as prefix tables, one per power j, because callers
sweep n upward (coefficient tables, ratio scans).  Extending a table
from n to n+1 costs a single rational addition.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .partitions import check_integer

__all__ = ["generalized_harmonic"]

_lock = threading.Lock()
_prefix: dict[int, list[Fraction]] = {}  # j -> [H(0,j), H(1,j), ..., H(m,j)]


def generalized_harmonic(n: int, j: int) -> Fraction:
    """Return H(n, j) = sum_{i=1}^{n} 1/i**j as an exact Fraction.

    H(0, j) = 0 by convention.  Results are memoized per power j and
    shared across threads; every call, a memoized read included, runs
    under one lock.
    """
    n, j = check_integer("n", n), check_integer("j", j)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if j < 1:
        raise ValueError(f"j must be >= 1, got {j}")
    with _lock:
        table = _prefix.setdefault(j, [Fraction(0)])
        while len(table) <= n:
            i = len(table)
            table.append(table[-1] + Fraction(1, i**j))
        return table[n]
