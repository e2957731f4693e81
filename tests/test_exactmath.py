"""Generalized harmonic numbers against a direct-summation oracle."""

import itertools
import math
import os
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from grouprange import generalized_harmonic

from partition_reference import harmonic_oracle


def test_base_cases():
    assert generalized_harmonic(0, 1) == 0
    assert generalized_harmonic(0, 5) == 0
    assert generalized_harmonic(1, 1) == 1
    assert generalized_harmonic(1, 7) == 1


def test_frozen_values():
    assert generalized_harmonic(3, 1) == Fraction(11, 6)
    assert generalized_harmonic(3, 2) == Fraction(49, 36)
    assert generalized_harmonic(4, 1) == Fraction(25, 12)
    assert generalized_harmonic(4, 2) == Fraction(205, 144)
    assert generalized_harmonic(5, 1) == Fraction(137, 60)
    assert generalized_harmonic(9, 1) == Fraction(7129, 2520)


def test_matches_direct_summation():
    for j in (1, 2, 3):
        for n in range(0, 120):
            assert generalized_harmonic(n, j) == harmonic_oracle(n, j)


def test_difference_property_sweep():
    for j in (1, 2):
        for n in range(1, 400):
            step = generalized_harmonic(n, j) - generalized_harmonic(n - 1, j)
            assert step == Fraction(1, n**j)


@given(n=st.integers(min_value=1, max_value=2000), j=st.integers(min_value=1, max_value=4))
def test_difference_property_random(n, j):
    step = generalized_harmonic(n, j) - generalized_harmonic(n - 1, j)
    assert step == Fraction(1, n**j)


def test_strictly_increasing_in_n():
    for j in (1, 2):
        previous = Fraction(0)
        for n in range(1, 200):
            current = generalized_harmonic(n, j)
            assert current > previous
            previous = current


def test_exact_reduced_form():
    # Fraction keeps values normalized; spot-check coprimality
    value = generalized_harmonic(10, 1)
    assert math.gcd(value.numerator, value.denominator) == 1
    assert value == Fraction(7381, 2520)


def test_log_bounds_with_outward_rounding():
    # H(n,1) < 1 + ln n and H(n,2) > 1 - 1/(n+1); the float bounds are
    # rounded outward (up for the upper bound, down for the lower one)
    # so double rounding can only loosen, never fake a failure.
    for n in range(1, 1001):
        upper = math.nextafter(1 + math.log(n), math.inf)
        assert generalized_harmonic(n, 1) < Fraction(upper)
        lower = math.nextafter(1 - 1 / (n + 1), -math.inf)
        assert generalized_harmonic(n, 2) > Fraction(lower)


def test_memo_under_thread_contention():
    # More threads than cores grow the shared prefix tables of powers no
    # other test uses, each thread in its own rotated order of mixed n;
    # every value must equal a serial running sum.
    powers = (6, 8, 9)
    n_max = 150
    expected = {
        j: list(itertools.accumulate((Fraction(1, i**j) for i in range(1, n_max + 1)),
                                     initial=Fraction(0)))
        for j in powers
    }
    queries = [(n, j) for n in (150, 3, 77, 0, 120, 41, 9, 101, 60, 150) for j in powers]
    workers = 2 * (os.cpu_count() or 1) + 2
    barrier = threading.Barrier(workers)
    mismatches: list[tuple[int, int]] = []
    errors: list[BaseException] = []

    def run(index: int) -> None:
        try:
            barrier.wait(timeout=30)
            shift = 7 * index % len(queries)
            for n, j in queries[shift:] + queries[:shift]:
                if generalized_harmonic(n, j) != expected[j][n]:
                    mismatches.append((n, j))
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "a harmonic thread hung"
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert mismatches == []
    for j in powers:
        for n in range(n_max + 1):
            assert generalized_harmonic(n, j) == expected[j][n]


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        generalized_harmonic(-1, 1)
    with pytest.raises(ValueError):
        generalized_harmonic(3, 0)
    with pytest.raises(ValueError):
        generalized_harmonic(3, -2)
