"""Machine check that per-observation efficiency peaks at part size 4.

The closed-form allocation rests on one fact about the exponential
coefficient table: the efficiency per consumed observation,
ratio(n) = C_n / n, attains its strict maximum at n = 4 with value
C_4 / 4 = 121/196.  The run checks the proof's steps:

(0) log 33 < 7/2, that is e**7 > 33**2 = 1089: fifteen Taylor terms of
    e**7, all positive, already exceed it.
(a) The strict maximum of the exact ratio(n) over the head 2..33; on
    the exponential table only C_2..C_33 are built.
(1) ratio(n) < 27/44 for every n >= 34, since C_n / n < h(n) =
    (1 + log(n-1))**2 / (n-1) (H(m, 1) <= 1 + log m, H(m, 2) >= 1), h
    falls from n = 4 (d/dx (1 + log x)**2 / x = (1 + log x)(1 - log x)
    / x**2), and h(34) < (1 + 7/2)**2 / 33 = 27/44 by (0).  The run
    checks 27/44 below the head's peak, so no n past 33 can reach it,
    and the table's ratios on 34..n_max below 27/44, float-first: the
    exact ratio decides only where c_float(n) / n lies within the
    proved margin FLOAT_TIE of 27/44.  The proof covers all n beyond.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

from .coefficients import FLOAT_TIE, CoefficientTable
from .partitions import check_integer

__all__ = ["PEAK_RATIO", "LemmaReport", "ratio", "verify_lemma"]

PEAK_RATIO = Fraction(121, 196)  # C_4 / 4 for the exponential table

_E7_BELOW = sum(Fraction(7**k, factorial(k)) for k in range(15))  # < e**7, about 1090.36
_TAIL_BOUND = Fraction(27, 44)  # (1 + 7/2)**2 / 33, above h(n) for every n >= 34


class LemmaReport(NamedTuple):
    """Outcome of one verification run.

    max_ratio_at: the first n in 2..33 with the largest exact ratio,
    max_ratio (step (a)); exact_ok: every other n in 2..33 lies
    strictly below it.  envelope_ok: steps (0) and (1) hold (e**7 >
    33**2, 27/44 < max_ratio, ratio(n) < 27/44 on tail_bound_start =
    34..checked_upper).  A ratio past 33 at or above the head's peak
    fails envelope_ok and leaves max_ratio_at, max_ratio and exact_ok
    to 2..33.
    """

    checked_upper: int
    max_ratio_at: int
    max_ratio: Fraction
    tail_bound_start: int
    envelope_ok: bool
    exact_ok: bool

    @property
    def holds(self) -> bool:
        return self.max_ratio_at == 4 and self.exact_ok and self.envelope_ok


def ratio(n: int, table: CoefficientTable) -> Fraction:
    """Exact efficiency per observation, C_n / n."""
    return table.c(n) / n


def verify_lemma(n_max: int, table: CoefficientTable) -> LemmaReport:
    """Check steps (0), (a) and (1) up to n_max (at least 34, where the tail starts).

    Failures are reported in the result, not raised; only malformed
    inputs raise.
    """
    n_max = check_integer("n_max", n_max, 34)
    if table.max_part < n_max:
        raise ValueError(f"table spans parts 2..{table.max_part}, need 2..{n_max}")

    # step (a): the strict maximum on the head, exactly
    tail_bound_start = 34
    head = range(2, tail_bound_start)
    max_ratio_at = max(head, key=lambda n: ratio(n, table))  # max keeps the first, smallest n
    max_ratio = ratio(max_ratio_at, table)
    exact_ok = all(ratio(n, table) < max_ratio for n in head if n != max_ratio_at)

    # steps (0) and (1): exact, but for ratios the float margin puts below the bound
    below = float(_TAIL_BOUND) * (1 - FLOAT_TIE)
    envelope_ok = _E7_BELOW > 33**2 and _TAIL_BOUND < max_ratio and all(
        table.c_float(n) / n < below or ratio(n, table) < _TAIL_BOUND
        for n in range(tail_bound_start, n_max + 1))

    return LemmaReport(
        checked_upper=n_max,
        max_ratio_at=max_ratio_at,
        max_ratio=max_ratio,
        tail_bound_start=tail_bound_start,
        envelope_ok=envelope_ok,
        exact_ok=exact_ok,
    )
