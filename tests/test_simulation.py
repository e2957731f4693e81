"""Seeded sampling, block scheduling, and Monte-Carlo summaries."""

import math

import numpy as np
import pytest

from grouprange import (
    BLOCK_REPLICATES,
    Partition,
    make_plan,
    monte_carlo,
    replicate_stream,
    sample_exponential,
)


class _FixedStream:
    """Stands in for a Generator; hands back prescribed uniforms."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def random(self, n):
        assert n == len(self._values)
        return self._values


# -------------------------------------------------------------------- sampling


def test_inverse_cdf_values():
    x = sample_exponential(3, 2.0, _FixedStream([0.0, 0.5, 1 - 1 / math.e]))
    assert x[0] == 0.0
    assert x[1] == pytest.approx(2.0 * math.log(2.0))
    assert x[2] == pytest.approx(2.0)


def test_sample_exponential_is_nonnegative_finite():
    x = sample_exponential(1000, 0.5, replicate_stream(11, 0))
    assert np.all(x >= 0)
    assert np.all(np.isfinite(x))


def test_sample_exponential_rejects_bad_args():
    stream = replicate_stream(0, 0)
    with pytest.raises(ValueError):
        sample_exponential(0, 1.0, stream)
    with pytest.raises(ValueError):
        sample_exponential(5, 0.0, stream)
    with pytest.raises(ValueError):
        sample_exponential(5, -2.0, stream)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            sample_exponential(5, theta, stream)


# --------------------------------------------------------------------- streams


def test_streams_are_deterministic_and_distinct():
    a = replicate_stream(9, 3).random(8)
    b = replicate_stream(9, 3).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, replicate_stream(9, 4).random(8))
    assert not np.array_equal(a, replicate_stream(10, 3).random(8))


def test_stream_rejects_bad_keys():
    with pytest.raises(ValueError):
        replicate_stream(-1, 0)
    with pytest.raises(ValueError):
        replicate_stream(1 << 64, 0)
    with pytest.raises(ValueError):
        replicate_stream(0, -1)


# ----------------------------------------------------------------- monte carlo


def test_monte_carlo_is_reproducible(table40):
    plan = make_plan(Partition.from_parts([4, 3]), table40)
    first = monte_carlo(plan, 1.5, 2000, seed=77)
    second = monte_carlo(plan, 1.5, 2000, seed=77)
    assert first == second
    assert first != monte_carlo(plan, 1.5, 2000, seed=78)


def test_monte_carlo_report_fields(table40):
    plan = make_plan(Partition.from_parts([5, 4]), table40)
    report = monte_carlo(plan, 2.0, 5000, seed=3)
    assert report.n == 9
    assert report.theta == 2.0
    assert report.replicates == 5000
    assert report.seed == 3
    assert report.plan_partition == plan.partition
    assert report.mean_std_error == math.sqrt(report.variance_estimate / 5000)
    assert report.theoretical_variance == float(plan.variance_factor) * 4.0


def test_monte_carlo_single_replicate(table40):
    plan = make_plan(Partition.from_parts([3]), table40)
    report = monte_carlo(plan, 1.0, 1, seed=5)
    assert report.variance_estimate == 0.0
    assert report.mean_std_error == 0.0
    assert report.mean_estimate > 0


def test_monte_carlo_matches_manual_blocking(table40):
    # spans a block boundary; recomputing the blocks by hand must give
    # bit-identical summaries, pinning the replicate-to-stream mapping
    plan = make_plan(Partition.from_parts([2]), table40)
    replicates = BLOCK_REPLICATES + 3
    report = monte_carlo(plan, 1.0, replicates, seed=42)

    estimates = np.empty(replicates)
    for b, rows in ((0, BLOCK_REPLICATES), (1, 3)):
        u = replicate_stream(42, b).random((rows, 2))
        x = -np.log1p(-u)
        low = b * BLOCK_REPLICATES
        estimates[low : low + rows] = (
            (x.max(axis=1) - x.min(axis=1))[:, None] * np.array([1.0])
        ).sum(axis=1)
    assert report.mean_estimate == float(estimates.mean())
    assert report.variance_estimate == float(estimates.var(ddof=1))


def test_monte_carlo_rejects_bad_args(table40):
    plan = make_plan(Partition.from_parts([2]), table40)
    with pytest.raises(ValueError):
        monte_carlo(plan, 0.0, 10, seed=0)
    with pytest.raises(ValueError):
        monte_carlo(plan, 1.0, 0, seed=0)
    with pytest.raises(ValueError):
        monte_carlo(plan, 1.0, 10, seed=-1)
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            monte_carlo(plan, theta, 10, seed=0)


# ------------------------------------------------------------------ statistics


def test_raw_draw_mean_matches_scale():
    x = sample_exponential(10**6, 2.0, replicate_stream(7, 0))
    # SE of the mean is theta / sqrt(N) = 0.002
    assert abs(float(x.mean()) - 2.0) < 4 * 0.002


def test_pair_plan_variance_near_one(table40):
    # the range of two exponentials is again exponential, so the
    # (2)-plan estimates have variance exactly theta**2 = 1
    plan = make_plan(Partition.from_parts([2]), table40)
    report = monte_carlo(plan, 1.0, 10**6, seed=42)
    assert abs(report.variance_estimate - 1.0) < 0.02
    assert abs(report.mean_estimate - 1.0) < 4 * report.mean_std_error


def test_optimal_plan_mean_unbiased(table40):
    plan = make_plan(Partition.from_parts([5, 5, 4, 4, 4]), table40)
    report = monte_carlo(plan, 1.0, 10**5, seed=2024)
    assert abs(report.mean_estimate - 1.0) < 4 * report.mean_std_error
    # empirical variance should sit near the exact value 2009/27133
    assert report.variance_estimate == pytest.approx(report.theoretical_variance, rel=0.05)
