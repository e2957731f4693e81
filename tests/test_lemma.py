"""Peak-efficiency verification: ratio values, envelope, and verdicts."""

from fractions import Fraction

import pytest

from grouprange import (
    PEAK_RATIO,
    CoefficientEntry,
    CoefficientTable,
    envelope_h,
    exponential_table,
    lemma,
    ratio,
    verify_lemma,
)

from partition_reference import harmonic_oracle


def ratio_oracle(n: int) -> Fraction:
    return harmonic_oracle(n - 1, 1) ** 2 / harmonic_oracle(n - 1, 2) / n


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
    assert envelope_h(2) == 1.0
    # the crossing sits between 33 and 34
    assert envelope_h(33) > float(PEAK_RATIO) > envelope_h(34)
    assert envelope_h(10) > envelope_h(11)
    with pytest.raises(ValueError):
        envelope_h(1)
    with pytest.raises(ValueError):
        envelope_h(0.5)


def test_envelope_dominates_ratio(table400):
    # h(n) > ratio(n) with real slack, the sandwich the tail bound needs
    for n in range(5, 201):
        assert envelope_h(n) - float(ratio(n, table400)) > 1e-5


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


@pytest.mark.parametrize("offset, peak_at", [(1, 8), (-1, 4)])
def test_float_tie_is_decided_exactly(offset, peak_at):
    # C_8 / 8 is 1e-20 above or below C_4 / 4: the same float, so only the
    # exact comparison can place the strict maximum
    c8 = 8 * PEAK_RATIO * (1 + Fraction(offset, 10**20))
    exponential = exponential_table(34)
    entries = [CoefficientEntry(8, c8, c8) if j == 8 else exponential.entry(j)
               for j in range(2, 35)]
    table = CoefficientTable("near-tie", tuple(entries))
    assert table.c_float(8) / 8 == table.c_float(4) / 4
    report = verify_lemma(34, table)
    assert report.max_ratio_at == peak_at
    assert report.max_ratio == max(c8 / 8, PEAK_RATIO)
    assert report.exact_ok and report.envelope_ok
    assert report.holds == (peak_at == 4)


def test_envelope_must_dominate_every_ratio():
    # C_34 / 34 = 0.615 lies above h(34) ~ 0.61268 but below 121/196, so
    # only the envelope's domination check can fail the run
    c34 = 34 * Fraction(615, 1000)
    exponential = exponential_table(40)
    entries = [CoefficientEntry(34, c34, c34) if j == 34 else exponential.entry(j)
               for j in range(2, 41)]
    table = CoefficientTable("above-envelope", tuple(entries))
    assert envelope_h(34) < table.c_float(34) / 34 < float(PEAK_RATIO)
    report = verify_lemma(40, table)
    assert report.max_ratio_at == 4 and report.exact_ok and report.tail_bound_start == 34
    assert not report.envelope_ok and not report.holds


def test_envelope_must_decrease_from_four(monkeypatch):
    # an envelope flat between 4 and 5 still dominates every ratio and
    # crosses at 34, so only the decrease check from n = 4 can fail the run
    h = lemma.envelope_h
    monkeypatch.setattr(lemma, "envelope_h", lambda n: h(4) if n == 5 else h(n))
    report = verify_lemma(40, exponential_table(40))
    assert report.max_ratio_at == 4 and report.exact_ok and report.tail_bound_start == 34
    assert not report.envelope_ok and not report.holds
