"""Coefficient tables and the CSV interchange format."""

import time
import tracemalloc
import weakref
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from grouprange import (
    CoefficientEntry,
    CoefficientTable,
    CoefficientTableError,
    Partition,
    export_table,
    exponential_table,
    generalized_harmonic,
    load_table,
    solve_dp,
)
from grouprange import coefficients
from grouprange.coefficients import FLOAT_C_ERROR

from partition_reference import harmonic_oracle


# ------------------------------------------------------------- exponential


def test_exponential_frozen_entries():
    t = exponential_table(5)
    assert (t.d(2), t.k_sq(2), t.c(2)) == (1, 1, 1)
    assert (t.d(3), t.k_sq(3), t.c(3)) == (Fraction(3, 2), Fraction(5, 4), Fraction(9, 5))
    assert (t.d(4), t.k_sq(4), t.c(4)) == (
        Fraction(11, 6), Fraction(49, 36), Fraction(121, 49),
    )
    assert (t.d(5), t.k_sq(5), t.c(5)) == (
        Fraction(25, 12), Fraction(205, 144), Fraction(125, 41),
    )


def test_exponential_matches_harmonic_oracle():
    t = exponential_table(60)
    for j in range(2, 61):
        d = harmonic_oracle(j - 1, 1)
        k_sq = harmonic_oracle(j - 1, 2)
        assert t.d(j) == d
        assert t.k_sq(j) == k_sq
        assert t.c(j) == d * d / k_sq


def test_exponential_structure():
    t = exponential_table(30)
    assert t.distribution_label == "exponential"
    assert t.max_part == 30
    assert [e.j for e in t.entries] == list(range(2, 31))
    assert t.covers(2) and t.covers(30)
    assert not t.covers(1) and not t.covers(31)


def test_exponential_table_spans_at_most_2_63():
    # the span's len() must fit a ssize_t: past it the range rule speaks,
    # not an OverflowError from inside the table
    t = exponential_table(2**63)
    assert t.max_part == 2**63 and t.c_float(5) == exponential_table(5).c_float(5)
    with pytest.raises(ValueError, match=r"^max_part must be <= 9223372036854775808, got 9223372036854775809$"):
        exponential_table(2**63 + 1)


def test_entries_positive_and_increasing():
    t = exponential_table(100)
    for j in range(2, 101):
        assert t.d(j) > 0 and t.k_sq(j) > 0 and t.c(j) > 0
    for j in range(2, 100):
        assert t.d(j + 1) > t.d(j)
        assert t.c(j + 1) > t.c(j)


def test_exponential_table_builds_entries_when_read(monkeypatch):
    # the span, its length and coverage build nothing; each read entry
    # equals the eagerly built CoefficientEntry(j, H(j-1, 1), H(j-1, 2))
    # and lands in the one memo every exponential table reads
    monkeypatch.setattr(coefficients, "_entries", {})
    t = exponential_table(2000)
    assert (len(t.entries), t.max_part, t.covers(2000), t.covers(2001)) == (1999, 2000, True, False)
    assert coefficients._entries == {}
    assert t.c_float(2000) > 0 and coefficients._entries == {}
    assert t.entry(7) is t.entries[5] is t.entries[-1994] is exponential_table(9).entry(7)
    assert list(coefficients._entries) == [7]
    for j in range(2, 2001):
        eager = CoefficientEntry(j, generalized_harmonic(j - 1, 1), generalized_harmonic(j - 1, 2))
        assert t.entry(j) == eager, j
    assert tuple(t.entries) == tuple(t.entry(j) for j in range(2, 2001))
    with pytest.raises(IndexError):
        t.entries[1999]
    # slices read as on a loaded table's tuple
    small = exponential_table(10)
    loaded = load_table(export_table(small)).entries
    for cut in (slice(1, 3), slice(None, None, -3), slice(-2, None), slice(5, 2), slice(None)):
        assert small.entries[cut] == loaded[cut], cut


def test_exponential_identity_builds_nothing(monkeypatch):
    # equality, hash and repr read the span alone, in O(1) at any max_part
    monkeypatch.setattr(coefficients, "_entries", {})
    t, twin = exponential_table(50_000), exponential_table(50_000)
    for probe in (lambda: t == twin, lambda: hash(t), lambda: repr(t)):
        start = time.perf_counter()
        probe()
        assert time.perf_counter() - start < 0.05
    assert t == twin and hash(t) == hash(twin) and t != exponential_table(49_999)
    assert repr(t.entries) == "_ExponentialEntries(parts=range(2, 50001))"
    assert coefficients._entries == {}


def test_float_coefficients_within_bound():
    # against the correctly rounded exact C_j for j <= 3000 ...
    t = exponential_table(3000)
    for j in range(2, 3001):
        exact = float(t.c(j))
        assert abs(t.c_float(j) - exact) <= FLOAT_C_ERROR * exact, j
    # ... and against a 40-digit decimal sum at j = 10**5
    j = 10**5
    with localcontext() as ctx:
        ctx.prec = 40
        h1 = sum(Decimal(1) / i for i in range(1, j))
        h2 = sum(Decimal(1) / (i * i) for i in range(1, j))
        reference = h1 * h1 / h2
    got = exponential_table(j).c_float(j)
    assert abs(Decimal(got) - reference) <= Decimal(FLOAT_C_ERROR) * reference
    # ... and against six Euler-Maclaurin terms of each harmonic sum, two
    # more than c_float takes, at 40 digits and with no float, far out
    gamma = Decimal("0.57721566490153286060651209008240243104215933593992")
    zeta_2 = Decimal("1.6449340668482264364724151666460251892189499012068")  # pi**2 / 6
    bernoulli = (Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
                 Fraction(5, 66), Fraction(-691, 2730))  # B_2, B_4, ..., B_12
    for j in (10**6, 10**9, 10**12, 10**15, 2**63):
        with localcontext() as ctx:
            ctx.prec = 40
            m = Decimal(j - 1)
            h1, h2 = m.ln() + gamma + 1 / (2 * m), zeta_2 - 1 / m + 1 / (2 * m * m)
            for k, b in enumerate(bernoulli, start=1):
                b = Decimal(b.numerator) / b.denominator
                h1, h2 = h1 - b / (2 * k * m ** (2 * k)), h2 - b / m ** (2 * k + 1)
            reference = h1 * h1 / h2
            got = exponential_table(j).c_float(j)
            assert abs(Decimal(got) - reference) <= Decimal(FLOAT_C_ERROR) * reference, j
    # a loaded table serves float(C_j), and both refuse an uncovered part
    assert load_table("j,d,k_sq\n2,1,3\n").c_float(2) == float(Fraction(1, 3))
    for table in (t, load_table("j,d,k_sq\n2,1,3\n")):
        with pytest.raises(ValueError, match="not covered"):
            table.c_float(table.max_part + 1)


def test_float_coefficient_costs_o1_at_any_part():
    # no prefix of the harmonic sums is built or kept
    t = exponential_table(10**6)
    tracemalloc.start()
    try:
        t.c_float(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_tables_compare_by_value():
    a = exponential_table(6)
    b = exponential_table(6)
    assert a == b and hash(a) == hash(b)
    assert a != exponential_table(7)
    # a loaded table holds the same rows, but an exponential table is its span
    loaded = load_table(export_table(exponential_table(3)), label="exponential")
    assert loaded.entries == tuple(exponential_table(3).entries)
    assert loaded != exponential_table(3) and loaded == load_table(export_table(loaded), "exponential")
    assert load_table(export_table(exponential_table(3))) != loaded  # the label


def test_tables_are_weak_referenceable():
    # the optimizer keys its per-table state on a weakref finalizer
    table = exponential_table(6)
    assert weakref.ref(table)() is table


def test_exponential_rejects_small_max_part():
    with pytest.raises(ValueError):
        exponential_table(1)


def test_uncovered_part_raises():
    t = exponential_table(5)
    with pytest.raises(ValueError, match="not covered"):
        t.c(6)


# ------------------------------------------------------------------ loading


def test_load_minimal_table():
    t = load_table("j,d,k_sq\n2,1,1\n3,3/2,5/4\n")
    assert t.distribution_label == "custom"
    assert t.max_part == 3
    assert t.c(3) == Fraction(9, 5)  # recomputed from d and k_sq


def test_load_accepts_bytes_and_streams(tmp_path):
    text = "j,d,k_sq\n2,1,1\n"
    assert load_table(text.encode()) == load_table(text)
    path = tmp_path / "t.csv"
    path.write_text(text)
    with open(path, "rb") as handle:
        assert load_table(handle) == load_table(text)


def test_load_accepts_a_byte_order_mark():
    # spreadsheet tools save "CSV UTF-8" with a leading BOM
    text = "j,d,k_sq\n2,1,1\n3,3/2,5/4\n"
    assert load_table(b"\xef\xbb\xbf" + text.encode()) == load_table(text)
    # an invalid byte after the mark is still reported on its own row
    with pytest.raises(CoefficientTableError, match="row 2: not valid UTF-8"):
        load_table(b"\xef\xbb\xbfj,d,k_sq\n\xff")


def test_load_decimals_exactly():
    t = load_table("j,d,k_sq\n2,0.1,1.25\n")
    assert t.d(2) == Fraction(1, 10)  # not the nearest double to 0.1
    assert t.k_sq(2) == Fraction(5, 4)


def test_load_ignores_stored_c_column():
    t = load_table("j,d,k_sq,C\n2,1,1,999\n")
    assert t.c(2) == 1
    assert load_table("j,d,k_sq,c\n2,1,1,999\n3,3/2,5/4\n").c(3) == Fraction(9, 5)


def test_load_error_extra_columns():
    # only c or C may follow k_sq in the header, and no row may be wider
    # than the header
    for header in ("j,d,k_sq,zzz", "j,d,k_sq,c,x", "j,d,k_sq,,"):
        with pytest.raises(CoefficientTableError) as info:
            load_table(f"{header}\n2,1,1\n")
        assert str(info.value) == f"row 1: bad header {header!r} (expected j,d,k_sq)"
    for text, message in [
        ("j,d,k_sq\n2,1,1\n3,3/2,5/4,7\n", "row 3: expected 3 columns, got 4"),
        ("j,d,k_sq,C\n2,1,1,1\n3,3/2,5/4,7,8,9\n", "row 3: expected 4 columns, got 6"),
    ]:
        with pytest.raises(CoefficientTableError) as info:
            load_table(text)
        assert str(info.value) == message


def test_load_skips_blank_lines():
    t = load_table("j,d,k_sq\n2,1,1\n\n3,3/2,5/4\n")
    assert t.max_part == 3


def test_load_error_bad_header():
    with pytest.raises(CoefficientTableError, match="row 1"):
        load_table("part,mean,var\n2,1,1\n")


def test_load_error_gap_in_part_sizes():
    with pytest.raises(CoefficientTableError, match="row 3"):
        load_table("j,d,k_sq\n2,1,1\n4,2,2\n")


def test_load_error_must_start_at_two():
    with pytest.raises(CoefficientTableError, match="expected 2, got 3"):
        load_table("j,d,k_sq\n3,1,1\n")


def test_load_error_nonpositive_variance():
    with pytest.raises(CoefficientTableError, match="row 2: non-positive variance"):
        load_table("j,d,k_sq\n2,1,0\n")
    with pytest.raises(CoefficientTableError, match="row 3: non-positive variance"):
        load_table("j,d,k_sq\n2,1,1\n3,1,-2\n")


def test_load_error_nonpositive_range():
    with pytest.raises(CoefficientTableError, match="non-positive expected range"):
        load_table("j,d,k_sq\n2,0,1\n")


def test_load_error_not_utf8(tmp_path):
    data = b"j,d,k_sq\n2,1,1\n3,1,\xff\n"
    with pytest.raises(CoefficientTableError, match="row 3: not valid UTF-8"):
        load_table(data)
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with open(path, "rb") as handle:
        with pytest.raises(CoefficientTableError, match="row 3: not valid UTF-8"):
            load_table(handle)
    with pytest.raises(CoefficientTableError, match="row 1: not valid UTF-8"):
        load_table(b"j,\xc3d,k_sq\n2,1,1\n")


def test_load_names_the_physical_line_of_a_bad_byte():
    # a quoted field spans lines 3 and 4; the bad byte is on line 4
    with pytest.raises(CoefficientTableError, match="^row 4: not valid UTF-8"):
        load_table(b'j,d,k_sq\n2,1,1\n3,"3/2\n\xff",5/4\n')


@pytest.mark.parametrize("line, message", [
    (b"4,x,1", "cannot parse d value 'x' as a rational"),
    (b"4,1,\xff", "not valid UTF-8"),
    (b"4,1", "expected 3 columns, got 2"),
    (b"5,1,1", "part sizes must be contiguous from 2, expected 4, got 5"),
])
def test_load_numbers_a_row_by_the_line_it_ends_on(line, message):
    # a quoted field spans lines 3 and 4, so the next record is on line 5
    # whichever fault it has
    with pytest.raises(CoefficientTableError, match=f"^row 5: {message}"):
        load_table(b'j,d,k_sq\n2,1,1\n3,"3/2\n",5/4\n' + line + b"\n")


def test_load_far_exponents():
    # past 1e+-1000 a stand-in gets the entry's range message without the
    # exact value being built, and a malformed literal that far out is
    # still malformed; nearer, the exact checks decide.  Exponents
    # that would take long to build are in test_cli, run with a timeout.
    row = "j,d,k_sq\n2,{},{}\n"
    for d, k_sq, message in [
        ("1e1001", "1", "row 2: expected range d outside [1e-50, 1e50]"),
        ("1e1000", "1", "row 2: expected range d outside [1e-50, 1e50]"),
        ("1", "1E-1001", "row 2: variance k_sq outside [1e-50, 1e50]"),
        ("-1e1001", "1", "row 2: expected range d outside [1e-50, 1e50]"),
        ("-1e70", "1", f"row 2: non-positive expected range d = {-10**70}"),
        ("1", "0e-5", "row 2: non-positive variance k_sq = 0"),
        ("1.00000000001e50", "1", "row 2: expected range d outside [1e-50, 1e50]"),
        ("1", "0.99999999999e-50", "row 2: variance k_sq outside [1e-50, 1e50]"),
        # exponents past what decimal holds, about 1e18, are as far out
        ("1e99999999999999999999", "1", "row 2: expected range d outside [1e-50, 1e50]"),
        ("1", "2.5E-99999999999999999999", "row 2: variance k_sq outside [1e-50, 1e50]"),
        ("1e99999999999999999999x", "1",
         "row 2: cannot parse d value '1e99999999999999999999x' as a rational"),
        ("1", "1e-9999999999999999999e9",
         "row 2: cannot parse k_sq value '1e-9999999999999999999e9' as a rational"),
    ]:
        with pytest.raises(CoefficientTableError) as info:
            load_table(row.format(d, k_sq))
        assert str(info.value) == message
    table = load_table(row.format("1e50", "1e-50"))
    assert (table.d(2), table.k_sq(2)) == (Fraction(10**50), Fraction(1, 10**50))
    # the literal's digits count with its exponent: both of these are 1
    table = load_table(row.format("1" + "0" * 1200 + "e-1200", "0." + "0" * 1200 + "1e1201"))
    assert (table.d(2), table.k_sq(2)) == (1, 1)


def test_load_error_malformed_value():
    with pytest.raises(CoefficientTableError, match="row 2"):
        load_table("j,d,k_sq\n2,one,1\n")
    with pytest.raises(CoefficientTableError, match="row 2"):
        load_table("j,d,k_sq\n2,1/0,1\n")
    with pytest.raises(CoefficientTableError, match="row 2"):
        load_table("j,d,k_sq\nx,1,1\n")


def test_load_error_short_row():
    with pytest.raises(CoefficientTableError, match="expected 3 columns"):
        load_table("j,d,k_sq\n2,1\n")


def test_load_error_empty():
    with pytest.raises(CoefficientTableError):
        load_table("")
    with pytest.raises(CoefficientTableError, match="no data rows"):
        load_table("j,d,k_sq\n")


def test_load_stops_after_max_part():
    # the rows after part max_part are not read, so their faults go unseen
    text = "j,d,k_sq\n2,1,1\n3,1.5,1.25\n4,x,1\n5,1,1," + "1" * 200_000 + "\n"
    assert load_table(text, max_part=3) == load_table("j,d,k_sq\n2,1,1\n3,1.5,1.25\n")
    with pytest.raises(CoefficientTableError, match="row 4: cannot parse d"):
        load_table(text, max_part=4)
    assert load_table("j,d,k_sq\n2,1,1\n", max_part=9).max_part == 2  # a shorter table is whole


def test_load_decodes_no_line_past_max_part():
    # a bad byte after part n's row is not read, as other faults there are not
    data = b"j,d,k_sq\n2,1,1\n3,3/2,5/4\n4,1,\xff\n"
    assert load_table(data, max_part=3) == load_table("j,d,k_sq\n2,1,1\n3,3/2,5/4\n")
    with pytest.raises(CoefficientTableError, match="^row 4: not valid UTF-8"):
        load_table(data)


def test_load_holds_the_file_once():
    # rows past max_part are neither decoded nor copied: the parse
    # allocates a small fraction of the file's size
    data = export_table(exponential_table(3)) + b"4,1,1\n" * 1_400_000
    tracemalloc.start()
    try:
        table = load_table(data, max_part=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.entries == tuple(exponential_table(3).entries)
    assert peak < len(data) / 4


def test_load_error_field_past_the_csv_limit():
    # csv refuses a field longer than its size limit; the error names the row
    with pytest.raises(CoefficientTableError, match=r"^row 3: field larger than field limit"):
        load_table("j,d,k_sq\n2,1,1\n3," + "1" * 200_000 + ",1\n")
    with pytest.raises(CoefficientTableError, match=r"^row 1: field larger than field limit"):
        load_table("j" * 200_000 + ",d,k_sq\n2,1,1\n")


# ---------------------------------------------------------------- exporting


def test_export_canonical_bytes():
    t = load_table("j,d,k_sq\n2,1,1\n3,1.5,1.25\n")
    assert export_table(t) == b"j,d,k_sq\n2,1,1\n3,3/2,5/4\n"


def test_export_load_round_trip_exponential():
    t = exponential_table(12)
    data = export_table(t)
    reloaded = load_table(data, label="exponential")
    assert reloaded.entries == tuple(t.entries)
    assert export_table(reloaded) == data


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=Fraction(1, 1000), max_value=1000),
            st.fractions(min_value=Fraction(1, 1000), max_value=1000),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_export_load_round_trip_random(rows):
    entries = tuple(
        CoefficientEntry(j, d, k_sq)
        for j, (d, k_sq) in enumerate(rows, start=2)
    )
    table = CoefficientTable("custom", entries)
    data = export_table(table)
    assert load_table(data) == table
    assert export_table(load_table(data)) == data


# --------------------------------------------------------- table invariants


def test_table_rejects_gap():
    e2 = CoefficientEntry(2, Fraction(1), Fraction(1))
    e4 = CoefficientEntry(4, Fraction(1), Fraction(1))
    with pytest.raises(ValueError, match="contiguous"):
        CoefficientTable("custom", (e2, e4))


def test_entry_c_is_derived():
    # c is not a constructor argument, so an inconsistent c cannot be built
    entry = CoefficientEntry(2, Fraction(2), Fraction(3))
    assert entry.c == Fraction(4, 3)
    with pytest.raises(TypeError):
        CoefficientEntry(2, Fraction(2), Fraction(2), Fraction(7))
    for d, k_sq, message in [
        (Fraction(0), Fraction(1), "non-positive expected range"),
        (Fraction(-1), Fraction(1), "non-positive expected range"),
        (Fraction(1), Fraction(0), "non-positive variance"),
        (Fraction(1), Fraction(-2), "non-positive variance"),
        (Fraction(1, 10**60), Fraction(0), "non-positive variance"),  # before the range check
    ]:
        with pytest.raises(ValueError, match=message):
            CoefficientEntry(2, d, k_sq)


def test_entry_takes_an_integer_j_and_rational_values():
    # a float d or k_sq made the solvers' exact objective a float, which
    # make_plan's exact identity check then refused with a bare AssertionError
    import numpy as np

    for args, message in [
        ((2, 0.1, 1), "d must be rational, got 0.1"),
        ((2, 1, 0.3), "k_sq must be rational, got 0.3"),
        ((2, Decimal("0.1"), 1), "d must be rational, got Decimal('0.1')"),
        ((2.0, 1, 1), "j must be an integer, got 2.0"),
    ]:
        with pytest.raises(TypeError) as caught:
            CoefficientEntry(*args)
        assert str(caught.value) == message
    with pytest.raises(ValueError, match="^j must be >= 2, got 1$"):
        CoefficientEntry(1, 1, 1)
    # ints, numpy integers included, are kept as Fractions of ints
    entry = CoefficientEntry(np.int64(3), np.int64(10**10), 1)
    assert entry == CoefficientEntry(3, Fraction(10**10), Fraction(1))
    assert type(entry.j) is int and type(entry.d) is type(entry.k_sq) is Fraction
    assert type(entry.c.numerator) is int and entry.c == 10**20


def test_table_keeps_its_own_tuple_of_a_callers_list():
    exponential = exponential_table(10)
    entries = [exponential.entry(j) for j in range(2, 11)]
    table = CoefficientTable("list", entries)
    assert table == CoefficientTable("list", tuple(entries))
    assert hash(table) == hash(CoefficientTable("list", tuple(entries)))
    assert solve_dp(10, table).partition == Partition.from_parts([5, 5])
    # changing the list afterwards changes neither the table nor its answers
    entries[3] = CoefficientEntry(5, Fraction(1, 100), 1)
    entries.append(CoefficientEntry(11, 1, 1))
    assert table.entry(5) == exponential.entry(5) and not table.covers(11)
    assert solve_dp(10, table).objective == Fraction(250, 41)
    changed = solve_dp(10, CoefficientTable("changed", entries))
    assert changed.partition == Partition.from_parts([4, 3, 3])
    assert changed.objective == Fraction(1487, 245)


def test_table_rejects_empty():
    with pytest.raises(ValueError):
        CoefficientTable("custom", ())
