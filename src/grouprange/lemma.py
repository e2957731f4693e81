"""Machine check that per-observation efficiency peaks at part size 4.

The closed-form allocation rests on one fact about the exponential
coefficient table: the efficiency per consumed observation,
ratio(n) = C_n / n, attains its strict maximum at n = 4 with value
C_4 / 4 = 121/196.  The check runs in three layers:

1. Exact layer: the strict maximum of ratio(n) over 2..n_max.  As
   the optimizer's scans do, it ranks c_float(n) / n and compares
   exactly only the n within a relative 1e-9 of the float peak; every
   other n is below it by that proved margin, 4 * 10**4 times the
   floats' error.  On the exponential table only C_4 is built.
2. Envelope layer: h(n) = (1 + log(n-1))**2 / (n-1) dominates
   ratio(n), because H(n-1, 1) < 1 + log(n-1) and
   H(n-1, 2) > 1 - 1/n, and h is strictly decreasing for n >= 4.
3. Tail layer: the first integer where h drops below 121/196 is 34,
   so h's monotone decay bounds ratio(n) < 121/196 for every n >= 34,
   including all n beyond the finite scan.

Layers 2 and 3 run in floating point, on the same float ratios.  A
verdict counts only when its margin exceeds 1e-9, far above double
rounding error for these magnitudes, so a float comparison can never
silently flip an outcome; observed margins are all above 1e-5.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import pairwise
from typing import NamedTuple

from .coefficients import FLOAT_TIE, CoefficientTable
from .partitions import check_integer

__all__ = ["PEAK_RATIO", "LemmaReport", "ratio", "envelope_h", "verify_lemma"]

PEAK_RATIO = Fraction(121, 196)  # C_4 / 4 for the exponential table

_MARGIN = 1e-9


class LemmaReport(NamedTuple):
    """Outcome of one verification run.

    exact_ok: every n != max_ratio_at had ratio strictly below the
    maximum, decided exactly or by a proved float margin.  envelope_ok:
    h decreasing on 4..checked_upper, h dominating ratio on
    5..checked_upper, and the tail crossing found, all with margin
    above 1e-9.
    tail_bound_start is the first integer with h(n) < 121/196 (0 when
    no crossing was found, which fails the run).
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


def envelope_h(n: float) -> float:
    """Dominating envelope (1 + log(n-1))**2 / (n-1), defined for n > 1."""
    if n <= 1:
        raise ValueError(f"envelope needs n > 1, got {n}")
    return (1 + math.log(n - 1)) ** 2 / (n - 1)


def verify_lemma(n_max: int, table: CoefficientTable) -> LemmaReport:
    """Run all three layers up to n_max (at least 34, the tail crossing).

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

    # envelope layer, floats with a hard margin: h strictly decreases on
    # 4..n_max and dominates the ratio on 5..n_max
    span = range(4, n_max + 1)
    decreasing = all(a - b > _MARGIN for a, b in pairwise(map(envelope_h, span)))
    dominating = all(envelope_h(n) - floats[n] > _MARGIN for n in span[1:])

    # tail layer: first integer where the envelope falls below the peak
    peak = float(PEAK_RATIO)
    tail_bound_start = next((n for n in span if peak - envelope_h(n) > _MARGIN), 0)
    envelope_ok = decreasing and dominating and tail_bound_start != 0

    return LemmaReport(
        checked_upper=n_max,
        max_ratio_at=max_ratio_at,
        max_ratio=max_ratio,
        tail_bound_start=tail_bound_start,
        envelope_ok=envelope_ok,
        exact_ok=exact_ok,
    )
