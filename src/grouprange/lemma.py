"""Machine check that per-observation efficiency peaks at part size 4.

The closed-form allocation rests on one fact about the exponential
coefficient table: the efficiency per consumed observation,
ratio(n) = C_n / n, attains its strict maximum at n = 4 with value
C_4 / 4 = 121/196.  Each of the two layers decides exactly or by the
proved float margin FLOAT_TIE:

1. Exact layer: the strict maximum of ratio(n) over 2..n_max.  As
   the optimizer's scans do, it ranks c_float(n) / n and compares
   exactly only the n within a relative 1e-9 of the float peak; every
   other n is below it by that proved margin, 4 * 10**4 times the
   floats' error.  On the exponential table only C_4 is built.
2. Tail layer: ratio(n) < 27/44 < 121/196 for every n >= 34, since
   C_n / n < h(n) = (1 + log(n-1))**2 / (n-1) (H(m, 1) <= 1 + log m,
   H(m, 2) >= 1), h falls from n = 4 (d/dx (1 + log x)**2 / x =
   (1 + log x)(1 - log x) / x**2), and h(34) < (1 + 7/2)**2 / 33 = 27/44
   as log 33 < 7/2, that is e**7 > 33**2 = 1089.  The run checks that
   by fifteen Taylor terms of e**7, 27/44 below the table's own peak,
   and the ratios on 34..n_max below 27/44; the proof covers all n beyond.
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

    exact_ok: every n != max_ratio_at had ratio strictly below the
    maximum.  envelope_ok: the tail bound holds (e**7 > 33**2, 27/44 <
    max_ratio, ratio(n) < 27/44 on tail_bound_start = 34..checked_upper).
    Each is decided exactly or by a proved float margin.
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
    """Run both layers up to n_max (at least 34, where the tail bound starts).

    Failures are reported in the result, not raised; only malformed
    inputs raise.
    """
    n_max = check_integer("n_max", n_max, 34)
    if table.max_part < n_max:
        raise ValueError(f"table spans parts 2..{table.max_part}, need 2..{n_max}")

    # exact layer: strict maximum location, exact only near the float peak
    floats = {n: table.c_float(n) / n for n in range(2, n_max + 1)}
    floor = max(floats.values()) * (1 - FLOAT_TIE)
    ratios = {n: ratio(n, table) for n, r in floats.items() if r >= floor}
    max_ratio_at = max(ratios, key=ratios.__getitem__)  # max keeps the first, smallest n
    max_ratio = ratios[max_ratio_at]
    exact_ok = all(r < max_ratio for n, r in ratios.items() if n != max_ratio_at)

    # tail layer: exact, but for ratios the float margin puts below the bound
    tail_bound_start = 34
    below = float(_TAIL_BOUND) * (1 - FLOAT_TIE)
    envelope_ok = _E7_BELOW > 33**2 and _TAIL_BOUND < max_ratio and all(
        floats[n] < below or ratio(n, table) < _TAIL_BOUND
        for n in range(tail_bound_start, n_max + 1))

    return LemmaReport(
        checked_upper=n_max,
        max_ratio_at=max_ratio_at,
        max_ratio=max_ratio,
        tail_bound_start=tail_bound_start,
        envelope_ok=envelope_ok,
        exact_ok=exact_ok,
    )
