"""Per-part-size range constants and their CSV interchange format.

For a subsample of j iid draws with scale parameter sigma, write the
range as R_j.  The table stores, per part size j, the scale-free
constants

    d_j   = E[R_j] / sigma          (expected standardized range)
    k_sq_j = Var(R_j) / sigma**2    (variance of the standardized range)
    C_j   = d_j**2 / k_sq_j         (efficiency of a size-j subsample)

C_j is the profit a part of size j contributes to the allocation
objective, and 1 / sum(C) is the variance factor of the resulting
unbiased estimator, so everything downstream hangs off these entries.

For the exponential distribution the spacings of the order statistics
are independent exponentials with rates n-1, n-2, ..., 1, which gives
exact harmonic values:

    d_j = H(j-1, 1),    k_sq_j = H(j-1, 2).

``exponential_table`` builds nothing up front: see ``_ExponentialEntries``
and ``CoefficientTable.c_float``.

Tables for other distributions load from CSV with header ``j,d,k_sq``,
one row per part size starting at j = 2 with no gaps.  Values may be
written as exact fractions ("5/4") or decimal literals ("1.25"); both
parse exactly, never through a float.  C is always derived from d
and k_sq, so a stored fourth column ``c`` or ``C`` is ignored; no other
column, and no cell past the header's, is accepted.

Where each check lives: ``CoefficientEntry`` requires an integer j >= 2
and rational d, k_sq > 0, kept as Fractions, bounds both to
[1e-50, 1e50] and derives c itself; ``CoefficientTable`` requires parts
contiguous from 2; ``load_table`` checks only the CSV (encoding, header,
columns, values, each row's j), each line decoded as the parse reaches
it, and prefixes an entry's error with its ``row N:``.
"""

from __future__ import annotations

import io
import math
import numbers
import re
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import IO, Optional, Sequence, Union

from .partitions import _Frozen, check_integer

__all__ = [
    "CoefficientEntry",
    "CoefficientTable",
    "CoefficientTableError",
    "exponential_table",
    "load_table",
    "export_table",
]

_HEADER = ("j", "d", "k_sq")
# Relative error bound of ``CoefficientTable.c_float``: a rounded exact C_j
# is within u = 2**-53.  On the exponential table a direct sum is within 19u
# (m rounded terms, m - 1 additions) and a series within about 7u: a few
# roundings, math.log within 1 ulp, and a remainder below its first omitted
# term, 1/(132 m**10) or 5/(66 m**11), at most 2.1u at m = 20 (the psi and psi'
# series envelop at real positive argument: DLMF 5.11(ii), Knuth TAOCP 1.2.11.2).
FLOAT_C_ERROR = 1e-14  # 90u, above h1 * h1 / h2's 59u
# The solvers' float comparisons and the lemma's on its tail 34..n_max decide
# unless their sides lie within this relative margin; then the exact one does,
# so on the exponential table the solvers build only C_2..C_6 and the answer's parts.
# c_float(j) / j is within a relative FLOAT_C_ERROR + u of C_j / j, so two
# ratios FLOAT_TIE apart, 4 * 10**4 times their combined error, order as the
# exact ones do.
FLOAT_TIE = 1e-9
_MIN_VALUE, _MAX_VALUE = Fraction(1, 10**50), Fraction(10**50)  # bounds on d and k_sq


class CoefficientTableError(ValueError):
    """Raised when a coefficient CSV cannot be parsed or violates the
    table invariants.  Messages include the offending row number."""


def _rational(name: str, value: numbers.Rational) -> Fraction:
    """value as a Fraction of ints (a numpy integer's too); TypeError unless rational."""
    if not isinstance(value, numbers.Rational):
        raise TypeError(f"{name} must be rational, got {value!r}")
    return value if isinstance(value, Fraction) else Fraction(int(value.numerator), int(value.denominator))


class CoefficientEntry(_Frozen):
    """Constants for one part size; ``c`` is derived at construction.

    d and k_sq must lie in [1e-50, 1e50], which keeps every float
    downstream normal.  C_j = d**2 / k_sq then lies in [1e-150, 1e150].
    An allocation of w observations has at most w/2 parts, so its
    objective, a DP value or a float candidate of the optimizer's
    filter alike, lies in [1e-150, w/2 * 1e150]: below 1e250 for every
    w < 1e100, far more parts than a table can hold, and well inside
    the normal float range [2.2e-308, 1.8e308].  A plan's weight
    (d / k_sq) / objective is at most 1e100 / 1e-150 = 1e250, and
    1 / objective at most 1e150.
    """

    def __init__(self, j: int, d: Fraction, k_sq: Fraction) -> None:
        j, d, k_sq = check_integer("j", j, 2), _rational("d", d), _rational("k_sq", k_sq)
        if d <= 0:
            raise ValueError(f"non-positive expected range d = {d}")
        if k_sq <= 0:
            raise ValueError(f"non-positive variance k_sq = {k_sq}")
        for name, value in (("expected range d", d), ("variance k_sq", k_sq)):
            if not _MIN_VALUE <= value <= _MAX_VALUE:
                raise ValueError(f"{name} outside [1e-50, 1e50]")
        vars(self).update(j=j, d=d, k_sq=k_sq, c=d ** 2 / k_sq)


class _ExponentialEntries(_Frozen):
    """The exponential entries of parts 2..max_part, each built when first read
    into the module memo ``_entries`` that every exponential table shares: one
    term past part j - 1's entry if that is built, else by binary splitting.
    Identity is the span: len, equality, hash and repr build nothing, and no
    loaded table's tuple equals it."""

    def __init__(self, max_part: int) -> None:
        vars(self).update(parts=range(2, max_part + 1))

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, index: Union[int, slice]) -> Union[CoefficientEntry, tuple]:
        j = self.parts[index]  # negative indices, slices and IndexError as on a tuple
        if isinstance(j, range):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        if j not in _entries:  # setdefault keeps one entry when threads race
            from .exactmath import generalized_harmonic as h

            m, previous = j - 1, _entries.get(j - 1)
            sums = ((h(m, 1), h(m, 2)) if previous is None  # else one term past part m's sums
                    else (previous.d + Fraction(1, m), previous.k_sq + Fraction(1, m * m)))
            _entries.setdefault(j, CoefficientEntry(j, *sums))
        return _entries[j]


_entries: dict[int, CoefficientEntry] = {}  # exact exponential entries by part, for every table
_GAMMA, _ZETA_2 = 0.5772156649015329, 1.6449340668482264  # Euler's gamma and pi**2 / 6


def _exponential_c_float(j: int) -> float:
    """H(m, 1)**2 / H(m, 2) with m = j - 1, in O(1) (see FLOAT_C_ERROR)."""
    m = j - 1
    if m < 20:  # direct sums, smallest term first; int division rounds correctly
        h1, h2 = sum(1 / i for i in range(m, 0, -1)), sum(1 / (i * i) for i in range(m, 0, -1))
    else:  # four Euler-Maclaurin terms of each
        r, x = 1 / m, 1 / (m * m)
        h1 = math.log(m) + (_GAMMA + (r / 2 - x * (1 / 12 - x * (1 / 120 - x * (1 / 252 - x / 240)))))
        h2 = _ZETA_2 - r * (1 - r / 2 + x * (1 / 6 - x * (1 / 30 - x * (1 / 42 - x / 30))))
    return h1 * h1 / h2


class CoefficientTable(_Frozen):
    """Immutable map from part size j (contiguous from 2) to constants.

    ``entries`` is a tuple, or an ``_ExponentialEntries`` on the
    exponential table.  A table is its label and its entries.
    """

    def __init__(self, distribution_label: str,
                 entries: Sequence[CoefficientEntry] | _ExponentialEntries) -> None:
        if not isinstance(entries, _ExponentialEntries):  # contiguous by design
            entries = tuple(entries)  # a caller's list cannot change the table later
            for expected, entry in enumerate(entries, start=2):
                if entry.j != expected:
                    raise ValueError(
                        f"part sizes must be contiguous from 2: expected {expected}, got {entry.j}"
                    )
        if not entries:
            raise ValueError("a coefficient table needs at least the j = 2 entry")
        vars(self).update(distribution_label=distribution_label, entries=entries)

    @property
    def max_part(self) -> int:
        return len(self.entries) + 1

    def covers(self, j: int) -> bool:
        return 2 <= check_integer("j", j) <= self.max_part

    def entry(self, j: int) -> CoefficientEntry:
        if not self.covers(j):
            raise ValueError(f"part size {j} not covered (table spans 2..{self.max_part})")
        return self.entries[j - 2]

    def d(self, j: int) -> Fraction:
        return self.entry(j).d

    def k_sq(self, j: int) -> Fraction:
        return self.entry(j).k_sq

    def c(self, j: int) -> Fraction:
        return self.entry(j).c

    def c_float(self, j: int) -> float:
        """C_j within a relative FLOAT_C_ERROR, in O(1); builds no exponential entry."""
        if isinstance(self.entries, _ExponentialEntries) and self.covers(j):
            return _exponential_c_float(int(j))  # a numpy integer's m * m could overflow
        return float(self.entry(j).c)  # raises when j is not covered


def exponential_table(max_part: int) -> CoefficientTable:
    """Exact table for the exponential distribution, parts 2..max_part, in O(1)."""
    max_part = check_integer("max_part", max_part, 2, sys.maxsize + 1)  # len(span) must fit a ssize_t
    return CoefficientTable("exponential", _ExponentialEntries(max_part))


def _adjusted_exponent(text: str) -> int:
    """The exponent of a decimal literal's leading digit; raises on a malformed one."""
    # decimal holds exponents up to about 1e18: read any exponent apart
    # and let decimal check the rest with exponent 0
    far = re.fullmatch(r"(.*E[-+]?)(\d+(?:_\d+)*)\s*", text, re.IGNORECASE)
    if far is None:
        return Decimal(text).adjusted()
    head, digits = far.groups()
    exponent = -int(digits) if head.endswith("-") else int(digits)
    return Decimal(head + "0").adjusted() + exponent


def _parse_rational(text: str, row: int, column: str) -> Fraction:
    try:
        # Fraction parses "p/q" and decimal literals exactly but builds 10**e first;
        # past 1e+-1000 a stand-in as far out draws the entry's range message.
        exponent = 0 if "/" in text else _adjusted_exponent(text)
        if abs(exponent) > 1000:
            return Fraction(10) ** (1001 if exponent > 0 else -1001)
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError, InvalidOperation):
        raise CoefficientTableError(
            f"row {row}: cannot parse {column} value {text!r} as a rational"
        ) from None


def load_table(
    source: Union[bytes, str, IO[bytes], IO[str]],
    label: str = "custom",
    max_part: Optional[int] = None,
) -> CoefficientTable:
    """Parse a coefficient CSV (UTF-8, header ``j,d,k_sq``), stopping after part ``max_part``.

    Bytes may start with a UTF-8 byte-order mark, as spreadsheet tools
    write it.  Error messages name the line a row ends on, the header being row 1.
    """
    if max_part is not None:
        max_part = check_integer("max_part", max_part, 2)
    raw = source if isinstance(source, (bytes, str)) else source.read()
    import csv  # here, so that only a command reading a table loads it

    # each line is decoded as the parse reaches it, so rows past max_part cost nothing
    rows = csv.reader(map(bytes.decode, io.BytesIO(raw)) if isinstance(raw, bytes)
                      else io.StringIO(raw))
    try:
        header = next(rows, None)
        if header is None:
            raise CoefficientTableError("row 1: missing header (expected j,d,k_sq)")
        header[:1] = [cell.removeprefix("\ufeff") for cell in header[:1]]  # a byte-order mark
        header = tuple(cell.strip() for cell in header)
        # a trailing c column is tolerated and ignored
        if header[:3] != _HEADER or header[3:] not in ((), ("c",), ("C",)):
            raise CoefficientTableError(
                f"row 1: bad header {','.join(header)!r} (expected j,d,k_sq)"
            )

        entries = []
        for row in rows:
            line = rows.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            if not 3 <= len(row) <= len(header):
                expected = 3 if len(row) < 3 else len(header)
                raise CoefficientTableError(f"row {line}: expected {expected} columns, got {len(row)}")
            try:
                j = int(row[0].strip())
            except ValueError:
                raise CoefficientTableError(
                    f"row {line}: cannot parse part size {row[0]!r}"
                ) from None
            if j != (expected_j := len(entries) + 2):
                raise CoefficientTableError(
                    f"row {line}: part sizes must be contiguous from 2, expected {expected_j}, got {j}"
                )
            d = _parse_rational(row[1], line, "d")
            k_sq = _parse_rational(row[2], line, "k_sq")
            try:
                entries.append(CoefficientEntry(j, d, k_sq))
            except ValueError as exc:
                raise CoefficientTableError(f"row {line}: {exc}") from None
            if j == max_part:
                break
    except csv.Error as exc:  # a field longer than csv's field size limit
        raise CoefficientTableError(f"row {rows.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:  # raised reading the line after line_num
        raise CoefficientTableError(f"row {rows.line_num + 1}: not valid UTF-8 ({exc.reason})") from None

    if not entries:
        raise CoefficientTableError("row 2: no data rows")
    return CoefficientTable(label, entries)


def export_table(table: CoefficientTable) -> bytes:
    """Canonical CSV bytes: header, then one ``j,p/q,p/q`` row per part, LF line
    endings, UTF-8; load_table(export_table(t)) round-trips.  Exponential parts past
    4,967 pass the default 4,300-digit int-to-str limit and raise ValueError."""
    lines = [",".join(_HEADER)]
    for entry in table.entries:
        lines.append(f"{entry.j},{entry.d},{entry.k_sq}")
    return ("\n".join(lines) + "\n").encode("utf-8")
