"""Peak-efficiency verification: ratio values, envelope, tail bound and verdicts."""

from fractions import Fraction

import pytest

from grouprange import (
    PEAK_RATIO,
    CoefficientEntry,
    CoefficientTable,
    coefficients,
    exponential_table,
    lemma,
    ratio,
    verify_lemma,
)
from grouprange.coefficients import FLOAT_TIE

from partition_reference import envelope, harmonic_oracle

TAIL_BOUND = Fraction(27, 44)


def ratio_oracle(n: int) -> Fraction:
    return harmonic_oracle(n - 1, 1) ** 2 / harmonic_oracle(n - 1, 2) / n


def with_ratio(n_max: int, j: int, r: Fraction) -> CoefficientTable:
    """exponential_table(n_max) with C_j / j replaced by r (d = k_sq = C_j)."""
    exponential = exponential_table(n_max)
    entries = [CoefficientEntry(j, j * r, j * r) if i == j else exponential.entry(i)
               for i in range(2, n_max + 1)]
    return CoefficientTable("one-ratio", tuple(entries))


def test_ratio_frozen_values(table40):
    assert ratio(2, table40) == Fraction(1, 2)
    assert ratio(4, table40) == Fraction(121, 196)
    assert ratio(5, table40) == Fraction(25, 41)
    assert PEAK_RATIO == Fraction(121, 196)


def test_ratio_matches_oracle(table40):
    for n in range(2, 41):
        assert ratio(n, table40) == ratio_oracle(n)


def test_peak_is_at_four(table100):
    for n in range(2, 101):
        if n != 4:
            assert ratio(n, table100) < PEAK_RATIO


def test_envelope_values():
    assert envelope(2) == 1.0
    # the crossing sits between 33 and 34, and 27/44 lies between h(34) and the peak
    assert envelope(33) > float(PEAK_RATIO) > float(TAIL_BOUND) > envelope(34)
    assert envelope(10) > envelope(11)


def test_envelope_dominates_ratio(table400):
    # h(n) > ratio(n) with real slack, the sandwich the tail bound needs
    for n in range(5, 201):
        assert envelope(n) - float(ratio(n, table400)) > 1e-5


def test_e7_lower_bound_is_fifteen_taylor_terms():
    # log 33 < 7/2 because e**7 > 33**2; summed here by the terms' recurrence
    total, term = Fraction(0), Fraction(1)
    for k in range(15):
        total += term
        term = term * 7 / (k + 1)
    assert lemma._E7_BELOW == total > 33**2
    assert 1090 < lemma._E7_BELOW < 1091
    assert lemma._TAIL_BOUND == TAIL_BOUND == (1 + Fraction(7, 2)) ** 2 / 33 < PEAK_RATIO


def test_verify_lemma_reports(table100, table1000):
    report = verify_lemma(50, table100)
    assert report.holds
    assert report.checked_upper == 50
    assert report.max_ratio_at == 4
    assert report.max_ratio == Fraction(121, 196)
    assert report.tail_bound_start == 34
    assert report.exact_ok and report.envelope_ok

    assert verify_lemma(34, table100).holds
    big = verify_lemma(1000, table1000)
    assert big.holds
    assert big.tail_bound_start == 34


def test_verify_lemma_rejects_bad_inputs(table100):
    with pytest.raises(ValueError, match=">= 34"):
        verify_lemma(33, table100)
    with pytest.raises(ValueError, match="need 2..120"):
        verify_lemma(120, table100)


def test_holds_requires_peak_at_four(table100):
    report = verify_lemma(50, table100)
    # same fields except a shifted peak location must not pass
    shifted = type(report)(
        checked_upper=report.checked_upper,
        max_ratio_at=5,
        max_ratio=report.max_ratio,
        tail_bound_start=report.tail_bound_start,
        envelope_ok=report.envelope_ok,
        exact_ok=report.exact_ok,
    )
    assert not shifted.holds


@pytest.mark.parametrize("j, r, peak_at, strict", [
    (2, Fraction(5, 8), 2, True),  # the scan starts at n = 2
    (8, PEAK_RATIO, 4, False),  # an exact tie: the first n, but no strict maximum
])
def test_exact_layer_places_the_peak(j, r, peak_at, strict):
    report = verify_lemma(34, with_ratio(34, j, r))
    assert report.max_ratio_at == peak_at and report.max_ratio == max(r, PEAK_RATIO)
    assert report.exact_ok == strict and report.envelope_ok and not report.holds


@pytest.mark.parametrize("offset, peak_at", [(1, 8), (-1, 4)])
def test_float_tie_is_decided_exactly(offset, peak_at):
    # C_8 / 8 is 1e-20 above or below C_4 / 4: the same float, so only the
    # exact comparison can place the strict maximum
    r8 = PEAK_RATIO * (1 + Fraction(offset, 10**20))
    table = with_ratio(34, 8, r8)
    assert table.c_float(8) / 8 == table.c_float(4) / 4
    report = verify_lemma(34, table)
    assert report.max_ratio_at == peak_at
    assert report.max_ratio == max(r8, PEAK_RATIO)
    assert report.exact_ok and report.envelope_ok
    assert report.holds == (peak_at == 4)


def test_tail_ratio_between_the_bound_and_the_peak_fails():
    # C_34 / 34 = 0.615 lies above h(34) ~ 0.61268 and 27/44 ~ 0.61364 but
    # below 121/196, so only the tail check can fail the run
    table = with_ratio(40, 34, Fraction(615, 1000))
    assert envelope(34) < float(TAIL_BOUND) < table.c_float(34) / 34 < float(PEAK_RATIO)
    report = verify_lemma(40, table)
    assert report.max_ratio_at == 4 and report.exact_ok and report.tail_bound_start == 34
    assert not report.envelope_ok and not report.holds


@pytest.mark.parametrize("n, r", [
    (40, Fraction(615, 1000)),  # in (27/44, 121/196) at n_max
    (34, TAIL_BOUND),  # the bound itself
    (34, TAIL_BOUND * (1 + Fraction(1, 10**12))),  # above it by less than FLOAT_TIE
])
def test_tail_ratios_must_lie_below_the_bound(n, r):
    # the peak stays 121/196 at 4, so only the tail check can fail the run
    table = with_ratio(40, n, r)
    report = verify_lemma(40, table)
    assert report.max_ratio_at == 4 and report.exact_ok and report.tail_bound_start == 34
    assert not report.envelope_ok and not report.holds


def test_tail_ratio_just_below_the_bound_passes():
    # within FLOAT_TIE of 27/44, so the float check cannot pass it; the exact one does
    table = with_ratio(40, 34, TAIL_BOUND * (1 - Fraction(1, 10**12)))
    assert table.c_float(34) / 34 > float(TAIL_BOUND) * (1 - FLOAT_TIE)
    report = verify_lemma(40, table)
    assert report.envelope_ok and report.holds


def test_tail_bound_must_lie_below_the_peak():
    # C_4 / 4 = 27/44 still tops every other ratio, so the peak is at 4,
    # but the tail bound then no longer lies strictly below it
    report = verify_lemma(40, with_ratio(40, 4, TAIL_BOUND))
    assert report.max_ratio_at == 4 and report.max_ratio == TAIL_BOUND and report.exact_ok
    assert not report.envelope_ok and not report.holds


@pytest.mark.parametrize("n, r", [
    (40, Fraction(7, 10)),  # above the head's peak, at n_max
    (34, Fraction(7, 10)),  # the same at the tail's first n
    (34, PEAK_RATIO),  # a tie with the head's peak
])
def test_tail_ratio_at_or_above_the_peak_leaves_the_peak_to_the_head(n, r):
    # the tail bound already fails such a table, so the peak fields stay
    # those of 2..33: 121/196 at 4, strict there
    report = verify_lemma(40, with_ratio(40, n, r))
    assert report.max_ratio_at == 4 and report.max_ratio == PEAK_RATIO and report.exact_ok
    assert not report.envelope_ok and not report.holds


def test_scan_builds_exactly_the_head(monkeypatch):
    # the tail is decided by floats on the exponential table: its exact
    # entries are the head's, C_2..C_33, at any n_max
    monkeypatch.setattr(coefficients, "_entries", {})
    assert verify_lemma(50_000, exponential_table(50_000)).holds
    assert sorted(coefficients._entries) == list(range(2, 34))


def test_scan_memory_does_not_grow_with_its_bound(cli_peak):
    # the tail keeps no per-n table: the bound's run peaks as the least one does
    code, peak = cli_peak("verify", "--lemma-max", "50000", "--agree-max", "2")
    least_code, least = cli_peak("verify", "--lemma-max", "34", "--agree-max", "2")
    assert (code, least_code) == (0, 0)
    assert peak < least + 2**20, (peak, least)
