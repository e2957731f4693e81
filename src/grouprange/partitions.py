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
partitions of n-1.  Each p comes from the Hardy-Ramanujan-Rademacher
series, O(sqrt n) terms summed in fixed-point integers within an
error budget of 1/4 (``_unrestricted``).  ``count_admissible`` takes
any n.  Enumeration is left to the tests, as the brute-force reference the
counts and the solvers are checked against; so is Euler's pentagonal
recurrence, the exact reference for the series.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from typing import Iterable, Mapping

__all__ = ["Partition", "count_admissible", "asymptotic_admissible"]


def check_integer(name: str, value: int) -> int:
    """Return operator.index(value); a float raises TypeError, not a truncated int."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


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
        n = check_integer("n", n)
        if n < 2:
            raise ValueError(f"admissible partitions need n >= 2, got {n}")
        total, previous, checked = 0, 1, []
        for part, mult in frequencies:
            part = check_integer("part", part)
            mult = check_integer(f"multiplicity of part {part}", mult)
            if part < 2:
                raise ValueError(f"part {part} is inadmissible (every part must be >= 2)")
            if part <= previous:
                raise ValueError("frequencies must be sorted by strictly increasing part")
            if mult < 1:
                raise ValueError(f"multiplicity {mult} for part {part} must be >= 1")
            total += part * mult
            previous = part
            checked.append((part, mult))
        if total != n:
            raise ValueError(f"parts sum to {total}, expected n = {n}")
        vars(self).update(n=n, frequencies=tuple(checked))

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
        return ",".join(",".join([str(p)] * m) for p, m in reversed(self.frequencies))


# Rademacher's remainder bound M(n, N) as Johansson states it (eq. 1.8)
# is _BOUND_1 / sqrt(N) + _BOUND_2 sqrt(N / (n-1)) sinh(pi sqrt(2n/3) / N);
# _GUARD bits beyond the term count's are carried below the sum's units.
_BOUND_1 = 44 * math.pi**2 / (225 * math.sqrt(3))
_BOUND_2 = math.pi * math.sqrt(2) / 75
_GUARD = 16


def _term_count(n: int) -> int:
    """Least N with M(n, N) < 1/5, for n >= 2.  M falls as N grows; the
    scan starts where the sinh argument drops below 700, inside a float."""
    a = math.pi * math.sqrt(2 * n / 3)
    count = math.ceil(a / 700)
    while _BOUND_1 / math.sqrt(count) + _BOUND_2 * math.sqrt(count / (n - 1)) * math.sinh(a / count) >= 0.2:
        count += 1
    return count


def _magnitude(d: int, k: int) -> int:
    """Bits of 8k e**(C/k) / d with d = 24n - 1 and C = pi sqrt(d) / 6: a
    bound on the k-th term, as |S_k| <= 2k and U(x) < e**x.  Falls until
    k = C and rises after, so on 1..N it peaks at k = 1 or k = N."""
    return max(0, math.ceil(math.pi * math.sqrt(d) / (6 * k) / math.log(2) + math.log2(8 * k / d)))


def _pi(bits: int) -> int:
    """pi * 2**bits, floored, by Machin's formula pi = 16 atan(1/5) - 4 atan(1/239).

    Each of the fewer than ``bits`` series terms is floored once; the
    bits.bit_length() + 8 working bits absorb those errors.
    """
    work = bits + bits.bit_length() + 8

    def atan_inv(m: int) -> int:  # atan(1/m) * 2**work
        total, power, j = 0, (1 << work) // m, 1
        while power:
            total += power // j if j % 4 == 1 else -(power // j)
            power //= m * m
            j += 2
        return total

    return (16 * atan_inv(5) - 4 * atan_inv(239)) >> (work - bits)


def _exp(x: int, bits: int) -> int:
    """e**(x / 2**bits) * 2**bits for 0 < x, within a relative 2**(1 - bits).

    x is halved h times (exactly, by a shift) to below 2**-r, the Taylor
    series summed, and the sum squared h times.  Each squaring doubles
    the relative error, so the work carries h + bits.bit_length() + 4
    more bits than the result.
    """
    r = math.isqrt(bits) // 2 + 1
    h = max(0, x.bit_length() - bits + r)
    work = bits + h + bits.bit_length() + 4
    t = x << (work - bits - h)
    total = term = 1 << work
    j = 1
    while term:
        term = (term * t >> work) // j
        total += term
        j += 1
    for _ in range(h):
        total = total * total >> work
    return total >> (work - bits)


def _cos(theta: int, bits: int) -> int:
    """cos(theta / 2**bits) * 2**bits for |theta| <= pi * 2**bits, within 2
    units: the Taylor series, at bits.bit_length() + 3 more bits."""
    extra = bits.bit_length() + 3
    work = bits + extra
    t2 = theta * theta << 2 * extra >> work
    total = term = 1 << work
    j = 1
    while term:
        term = -(term * t2 >> work) // (j * (j + 1))
        total += term
        j += 2
    return total >> extra


def _term(n: int, k: int, g: int, pi: int, c6: int, top: int) -> int:
    """The k-th term 4 S_k U(C/k) / (24n - 1) of p(n), times 2**g.

    pi and c6 = 6C = pi sqrt(24n - 1) come at ``top`` bits, half the bits
    of 24n - 1 more than any term takes, so x = C/k is within 2 units.
    """
    m = 2 * k
    roots = [j for j in range(m) if (3 * j * j + j + 2 * n) % m == 0]
    if not roots:
        return 0
    d = 24 * n - 1
    mag = _magnitude(d, k)
    bits = mag + g
    x = c6 // (6 * k) >> (top - bits)
    pi >>= top - bits
    e = _exp(x, bits)
    e_inv = (1 << 2 * bits) // e
    u = (e + e_inv) // 2 - ((e - e_inv) << (bits - 1)) // x  # cosh x - sinh(x) / x
    s_k = 0
    for j in roots:
        a = (6 * j + 1) % (12 * k)  # cos(pi a / 6k) with a in (-6k, 6k]
        if a > 6 * k:
            a -= 12 * k
        c = _cos(pi * a // (6 * k), bits)
        s_k += -c if j % 2 else c
    return 4 * (s_k * u >> bits) // d >> mag


def _unrestricted(n: int) -> int:
    """p(n), the number of partitions of n, from Rademacher's series

        p(n) = 4 / (24n - 1) * sum_{k=1..N} S_k U(C/k) + R(n, N),
        C = (pi/6) sqrt(24n - 1),  U(x) = cosh x - sinh(x) / x,
        S_k = sum of (-1)**j cos(pi (6j+1) / 6k) over j mod 2k
              with (3j**2 + j) / 2 = -n (mod k),

    S_k being Selberg's form of A_k(n), whose sqrt(k/3) cancels the
    sqrt(3/k) of each term (H. Rademacher, Proc. LMS 43, 1937;
    F. Johansson, LMS J. Comput. Math. 15, 2012).  Error budget:

    * truncation: |R(n, N)| < M(n, N) < 1/5 for the N of _term_count,
      whose float evaluation errs by about 1e-15, far inside the 1/20
      left before 1/4;
    * rounding: term k is carried in fixed point at mag_k + g fractional
      bits, where 2**mag_k bounds it and g = _GUARD + N.bit_length().
      x = C/k is within 2 units, _exp and _cos within a few, and the
      division by x >= C/N > 1/16 magnifies those at most 2**7 times:
      each term lands within 2**(7 - g) and the N terms, each floored to
      g bits, within 2**(8 - _GUARD) = 1/256 < 1/20.  Measured, the
      rounding stays below 1e-5 up to n = 80,000.

    So the sum lies within 1/4 of p(n).  One within 1/4 of a half-integer
    means the budget broke, and raises rather than rounding to a wrong count.
    """
    if n < 2:
        return int(n >= 0)
    d = 24 * n - 1
    terms = _term_count(n)
    g = _GUARD + terms.bit_length()
    top = max(_magnitude(d, 1), _magnitude(d, terms)) + g + d.bit_length() // 2 + 2
    pi = _pi(top)
    c6 = pi * math.isqrt(d << 2 * top) >> top
    total = sum(_term(n, k, g, pi, c6, top) for k in range(1, terms + 1))
    p, offset = divmod(total + (1 << g - 1), 1 << g)
    if abs(offset - (1 << g - 1)) > 1 << g - 2:
        raise ArithmeticError(f"Rademacher's series for p({n}) lands within 1/4 of a half-integer")
    return p


def count_admissible(n: int) -> int:
    """Exact number of partitions of n with every part >= 2.

    P(n) = p(n) - p(n-1), each from Rademacher's series, with p(-1) = 0:
    P(0) = 1 counts the empty partition and P(1) = 1 - 1 = 0.
    """
    n = check_integer("n", n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _unrestricted(n) - _unrestricted(n - 1)


_ASYMPTOTIC_MAX = 76_567  # from n = 76,568 the exp below overflows a float


def asymptotic_admissible(n: int) -> float:
    """First-order growth estimate of the admissible count:
    pi / (12 sqrt(2) n**1.5) * exp(pi sqrt(2n/3))."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _ASYMPTOTIC_MAX:
        raise ValueError(f"n must be <= {_ASYMPTOTIC_MAX} for a finite float estimate, got {n}")
    return math.pi / (12 * math.sqrt(2) * n**1.5) * math.exp(math.pi * math.sqrt(2 * n / 3))
