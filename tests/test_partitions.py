"""Partition representation and counting, and the enumeration reference.

The package counts from Rademacher's series; the tests check it against
Euler's pentagonal recurrence (``partition_reference.pentagonal_prefix``,
which sums the far terms block-wise) and against an oracle different
from both: partitions of m with parts bounded by k, filled part size by
part size.  ``reference_pentagonal_prefix`` is the recurrence taken one
capacity and one term at a time, the check on the block-wise prefix.
"""

import functools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from grouprange import (
    CoefficientEntry,
    Partition,
    asymptotic_admissible,
    count_admissible,
    exponential_table,
    load_table,
    partitions,
)

from partition_reference import count_unrestricted, enumerate_admissible, pentagonal_prefix


def unrestricted_oracle(n_max: int) -> list[int]:
    # p(m) via bounded-part accumulation, independent of the recurrence
    counts = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for m in range(part, n_max + 1):
            counts[m] += counts[m - part]
    return counts


def reference_pentagonal_prefix(n: int) -> list[int]:
    """[p(0), ..., p(n)] by Euler's recurrence, one term at a time."""
    p = [1]
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p.append(total)
    return p


# ------------------------------------------------------------ Partition type


def test_partition_from_parts():
    p = Partition.from_parts([4, 5, 4, 5, 4])
    assert p.n == 22
    assert p.parts == (5, 5, 4, 4, 4)
    assert p.frequencies == ((4, 3), (5, 2))
    assert str(p) == "5,5,4,4,4"
    assert Partition.from_parts([3, 2]).frequencies == ((2, 1), (3, 1))
    assert Partition.from_parts(iter([2, 5, 2])).parts == (5, 2, 2)
    # the errors are Partition's own, whatever the order of the parts
    for parts, message in [
        ([], "admissible partitions need n >= 2, got 0"),
        ([1, 3], "part 1 is inadmissible (every part must be >= 2)"),
        ([3, 2, 1], "part 1 is inadmissible (every part must be >= 2)"),
        ([4, 0, 2], "part 0 is inadmissible (every part must be >= 2)"),
    ]:
        with pytest.raises(ValueError) as error:
            Partition.from_parts(parts)
        assert str(error.value) == message


def test_partition_from_frequencies():
    p = Partition.from_frequencies({4: 2, 5: 0, 3: 1})
    assert p.n == 11
    assert p.parts == (4, 4, 3)
    assert p.frequencies == ((3, 1), (4, 2))


def test_partition_equality_and_hash():
    a = Partition.from_parts([4, 4, 3])
    b = Partition.from_frequencies({3: 1, 4: 2})
    assert a == b
    assert hash(a) == hash(b) == hash((11, ((3, 1), (4, 2))))
    assert a != (11, ((3, 1), (4, 2))) and a != Partition.from_parts([4, 4, 2, 2])


def test_partition_rejects_invalid():
    with pytest.raises(ValueError):
        Partition.from_parts([1, 3])  # part below 2
    with pytest.raises(ValueError):
        Partition.from_parts([])  # n = 0
    with pytest.raises(ValueError):
        Partition(5, ((2, 1),))  # sum mismatch
    with pytest.raises(ValueError):
        Partition(4, ((2, -2),))  # bad multiplicity
    with pytest.raises(ValueError):
        Partition(7, ((3, 1), (2, 2)))  # unsorted frequencies



def test_partition_refuses_non_integers():
    # a float part, multiplicity or n is refused, not carried into the solvers
    with pytest.raises(TypeError, match="part must be an integer, got 4.0"):
        Partition(8, ((4.0, 2),))
    with pytest.raises(TypeError, match="multiplicity of part 4 must be an integer, got 2.0"):
        Partition(8, ((4, 2.0),))
    with pytest.raises(TypeError, match="n must be an integer, got 8.0"):
        Partition(8.0, ((4, 2),))
    with pytest.raises(TypeError, match="must be an integer"):
        Partition.from_parts([4.0, 4.0])
    with pytest.raises(TypeError, match="must be an integer"):
        Partition.from_frequencies({Fraction(4): 2})


def test_partition_takes_numpy_integers():
    np = pytest.importorskip("numpy")
    partition = Partition.from_parts(np.array([4, 4, 3]))
    assert partition == Partition.from_parts([4, 4, 3]) and str(partition) == "4,4,3"


def test_partition_stores_the_checked_ints():
    np = pytest.importorskip("numpy")
    plain = Partition.from_parts([4, 4, 3])
    for partition in (Partition.from_parts(np.array([4, 4, 3])),
                      Partition(np.int64(11), ((np.int32(3), np.int64(1)), (np.uint8(4), np.int16(2))))):
        assert type(partition.n) is int
        assert all(type(x) is int for pair in partition.frequencies for x in pair)
        assert repr(partition) == repr(plain) == "Partition(n=11, frequencies=((3, 1), (4, 2)))"
        assert str(partition) == str(plain) and hash(partition) == hash(plain)


# The validated records take equality, hash and repr from their fields,
# in the order __init__ sets them; each repr below is pinned as it was
# when every record wrote its own, but the exponential table's, which
# prints its span.
IDENTITY_CASES = [
    (lambda: Partition.from_parts([5, 5, 4, 4, 4]),
     "Partition(n=22, frequencies=((4, 3), (5, 2)))"),
    (lambda: CoefficientEntry(3, Fraction(3, 2), Fraction(5, 4)),
     "CoefficientEntry(j=3, d=Fraction(3, 2), k_sq=Fraction(5, 4), c=Fraction(9, 5))"),
    (lambda: load_table("j,d,k_sq\n2,1,3\n3,3/2,5/4\n"),
     "CoefficientTable(distribution_label='custom', entries=("
     "CoefficientEntry(j=2, d=Fraction(1, 1), k_sq=Fraction(3, 1), c=Fraction(1, 3)), "
     "CoefficientEntry(j=3, d=Fraction(3, 2), k_sq=Fraction(5, 4), c=Fraction(9, 5))))"),
    (lambda: exponential_table(3),
     "CoefficientTable(distribution_label='exponential', "
     "entries=_ExponentialEntries(parts=range(2, 4)))"),
]


@pytest.mark.parametrize("build, text", IDENTITY_CASES,
                         ids=["partition", "entry", "loaded_table", "exponential_table"])
def test_records_derive_identity_from_fields(build, text):
    record, twin = build(), build()
    assert repr(record) == text
    assert record is not twin and record == twin and hash(record) == hash(twin)
    assert hash(record) == hash(tuple(vars(record).values()))
    # another class with the very same fields never compares equal
    lookalike = object.__new__(type("Lookalike", (type(record),), {}))
    vars(lookalike).update(vars(record))
    assert record != lookalike and lookalike != record
    assert record != tuple(vars(record).values())


# ------------------------------------------------------------- enumeration


def test_enumerate_frozen_small_cases():
    assert [p.parts for p in enumerate_admissible(2)] == [(2,)]
    assert [p.parts for p in enumerate_admissible(3)] == [(3,)]
    assert [p.parts for p in enumerate_admissible(4)] == [(4,), (2, 2)]
    assert [p.parts for p in enumerate_admissible(5)] == [(5,), (3, 2)]
    assert [p.parts for p in enumerate_admissible(6)] == [
        (6,), (4, 2), (3, 3), (2, 2, 2),
    ]
    assert [p.parts for p in enumerate_admissible(8)] == [
        (8,), (6, 2), (5, 3), (4, 4), (4, 2, 2), (3, 3, 2), (2, 2, 2, 2),
    ]


def test_enumerate_rejects_small_n():
    with pytest.raises(ValueError):
        list(enumerate_admissible(1))
    with pytest.raises(ValueError):
        list(enumerate_admissible(0))


def test_enumeration_is_valid_unique_and_ordered():
    for n in range(2, 31):
        seen = set()
        previous = None
        for p in enumerate_admissible(n):
            assert p.n == n
            assert sum(p.parts) == n
            assert all(part >= 2 for part in p.parts)
            assert p.parts == tuple(sorted(p.parts, reverse=True))
            assert p.parts not in seen
            seen.add(p.parts)
            if previous is not None:
                assert p.parts < previous  # descending lexicographic
            previous = p.parts


def test_enumeration_count_matches_formula():
    for n in range(2, 41):
        assert sum(1 for _ in enumerate_admissible(n)) == count_admissible(n)


# ---------------------------------------------------------------- counting


def test_unrestricted_frozen_values():
    assert count_unrestricted(0) == 1
    assert count_unrestricted(1) == 1
    assert count_unrestricted(4) == 5
    assert count_unrestricted(100) == 190569292
    assert count_unrestricted(1000) == 24061467864032622473692149727991


def test_pentagonal_prefix_matches_reference():
    # each n up to 700 ends its last block at a different capacity,
    # across ten block boundaries; the larger sizes are the benchmark's
    reference = reference_pentagonal_prefix(8000)
    for n in range(701):
        assert pentagonal_prefix(n) == reference[: n + 1], n
    for n in (2505, 3963, 6298, 8000):
        assert pentagonal_prefix(n) == reference[: n + 1], n


def test_series_matches_the_pentagonal_reference(monkeypatch):
    # every n to 2,000; the benchmark's seed-1 count sizes and the largest
    # it draws, 8,000; the CLI's bound 50,000; 200 seeded n between; and n
    # past 76,568, where a float sinh or exp of the series' largest
    # argument would overflow.  count_admissible(n) takes p(n) - p(n - 1):
    # the cache computes each p once, by the series, for the next n to reuse
    monkeypatch.setattr(partitions, "_unrestricted", functools.cache(partitions._unrestricted))
    p = pentagonal_prefix(80_000)
    rng = random.Random(24)
    sizes = [*range(2001), 2505, 3963, 6298, 8000, 49_999, 50_000, 76_568, 80_000]
    for n in sizes + [rng.randrange(2001, 50_000) for _ in range(200)]:
        assert count_admissible(n) == p[n] - (p[n - 1] if n else 0), n


def remainder_bound(n, terms):
    """Rademacher's bound on the series' remainder after ``terms`` terms
    (Johansson 2012, eq. 1.8), in decimals: no overflow at small terms."""
    pi = Decimal("3.14159265358979323846264338327950288")
    arg = pi / terms * (Decimal(2 * n) / 3).sqrt()
    sinh = (arg.exp() - (-arg).exp()) / 2
    return (44 * pi**2 / (225 * Decimal(3).sqrt() * Decimal(terms).sqrt())
            + pi * Decimal(2).sqrt() / 75 * (Decimal(terms) / (n - 1)).sqrt() * sinh)


@pytest.mark.parametrize("n", [3, 100, 2505, 50_000, 80_000])
def test_series_sums_the_terms_the_remainder_bound_asks_for(n, monkeypatch):
    # the sum stops at the least N whose bound is below 1/5: a tail past
    # the tested sizes is far below 1/4, so only this check sees a short sum
    seen = {n: [], n - 1: []}
    term = partitions._term
    monkeypatch.setattr(partitions, "_term", lambda m, k, *rest: seen[m].append(k) or term(m, k, *rest))
    count_admissible(n)
    for m, ks in seen.items():
        least = next(t for t in range(1, 10**4) if remainder_bound(m, t) < Decimal("0.2"))
        assert ks == list(range(1, least + 1)), m


@pytest.mark.parametrize("shift, raises", [(0.2, False), (0.3, True), (0.5, True), (-0.3, True)])
def test_series_raises_when_its_sum_lands_near_a_half_integer(shift, raises, monkeypatch):
    term = partitions._term
    monkeypatch.setattr(partitions, "_term", lambda n, k, g, *rest:
                        term(n, k, g, *rest) + (k == 1) * round(shift * 2**g))
    if raises:
        with pytest.raises(ArithmeticError, match=r"p\(100\) lands within 1/4 of a half-integer"):
            count_admissible(100)
    else:
        assert count_admissible(100) == 21339417


def test_unrestricted_matches_oracle():
    oracle = unrestricted_oracle(120)
    for n in range(121):
        assert count_unrestricted(n) == oracle[n]


def test_admissible_difference_identity():
    oracle = unrestricted_oracle(200)
    assert count_admissible(0) == 1
    assert count_admissible(1) == 0
    for n in range(1, 201):
        assert count_admissible(n) == oracle[n] - oracle[n - 1]


def test_admissible_frozen_values():
    assert count_admissible(2) == 1
    assert count_admissible(6) == 4
    assert count_admissible(40) == 6153
    assert count_admissible(100) == 21339417


def test_counts_nonnegative_and_growing():
    previous = 1
    for n in range(2, 300):
        current = count_admissible(n)
        assert current >= previous  # never shrinks past n = 2
        previous = current


def test_count_rejects_negative():
    with pytest.raises(ValueError):
        count_admissible(-3)


def test_count_refuses_non_integers():
    for n in (3.0, Fraction(3), Decimal(3), "3"):
        with pytest.raises(TypeError, match="n must be an integer"):
            count_admissible(n)
    np = pytest.importorskip("numpy")
    assert count_admissible(np.int64(30)) == count_admissible(30) == 1039


def test_count_starts_from_the_empty_partition():
    # P(n) = p(n) - p(n-1) with p(-1) = 0 covers n = 0 and 1 as well
    assert partitions._unrestricted(-1) == 0
    assert [partitions._unrestricted(n) for n in range(4)] == [1, 1, 2, 3]
    assert [count_admissible(n) for n in range(5)] == [1, 0, 1, 1, 2]


# -------------------------------------------------------------- asymptotics


def test_asymptotic_accuracy_at_100():
    exact = count_admissible(100)
    approx = asymptotic_admissible(100)
    assert 0.5 < exact / approx < 2.0


def test_asymptotic_ratio_improves():
    r100 = count_admissible(100) / asymptotic_admissible(100)
    r400 = count_admissible(400) / asymptotic_admissible(400)
    assert abs(r400 - 1) < abs(r100 - 1)


def test_asymptotic_rejects_small_n():
    with pytest.raises(ValueError):
        asymptotic_admissible(0)


def test_asymptotic_rejects_n_whose_estimate_overflows():
    assert f"{asymptotic_admissible(76_567):.5g}" == "1.5698e+300"
    assert math.isfinite(asymptotic_admissible(76_567))
    with pytest.raises(ValueError, match=r"^n must be <= 76567 for a finite float estimate, got 76568$"):
        asymptotic_admissible(76_568)
