"""Seeded sampling, block scheduling, and Monte-Carlo summaries."""

import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from grouprange import (
    BLOCK_REPLICATES,
    CoefficientEntry,
    CoefficientTable,
    Partition,
    SimulationReport,
    estimate,
    exponential_table,
    make_plan,
    monte_carlo,
    replicate_stream,
    sample_exponential,
    theoretical_variance,
)
from grouprange import simulation
from grouprange.optimizer import rule_of_fours

class _FixedStream:
    """Stands in for a Generator; hands back prescribed uniforms."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)

    def random(self, *, out):
        assert len(out) == len(self._values)
        out[:] = self._values
        return out


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
    for theta in (math.nan, math.inf, -math.inf, 1e200, 1e-200):
        with pytest.raises(ValueError, match="finite"):
            sample_exponential(5, theta, stream)


def test_sample_exponential_continues_one_stream():
    # chunked monte_carlo relies on successive draws continuing one stream
    stream = replicate_stream(5, 1)
    drawn = np.concatenate([sample_exponential(7, 1.5, stream), sample_exponential(4, 1.5, stream)])
    assert np.array_equal(drawn, sample_exponential(11, 1.5, replicate_stream(5, 1)))


# --------------------------------------------------------------------- streams


@pytest.mark.parametrize("seed, block", [(0, 0), (9, 3), (77, 1), (2**64 - 1, 2**64 - 1)])
def test_raw_words_give_the_generators_uniforms(seed, block):
    # monte_carlo scales the raw Philox words itself: Generator.random's U
    # is (word >> 11) * 2**-53 of the same words, bit for bit, and the
    # shifted words cast as int64 and scaled by -2**-53 give -U; two draws
    # continue one stream, and 7 words end inside one of Philox's
    # four-word outputs
    words = replicate_stream(seed, block).bit_generator
    stream = replicate_stream(seed, block)
    for size in (7, 4096):
        u = stream.random(size)
        raw = words.random_raw(size) >> 11
        assert (raw * 2.0**-53).tobytes() == u.tobytes()
        assert (raw.view(np.int64) * -(2.0**-53)).tobytes() == (-u).tobytes()


def test_streams_are_deterministic_and_distinct():
    a = replicate_stream(9, 3).random(8)
    b = replicate_stream(9, 3).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, replicate_stream(9, 4).random(8))
    assert not np.array_equal(a, replicate_stream(10, 3).random(8))
    assert np.array_equal(a, replicate_stream(np.uint64(9), np.int32(3)).random(8))


def test_stream_rejects_bad_keys():
    with pytest.raises(ValueError):
        replicate_stream(-1, 0)
    with pytest.raises(ValueError):
        replicate_stream(1 << 64, 0)
    with pytest.raises(ValueError):
        replicate_stream(0, -1)
    with pytest.raises(ValueError):
        replicate_stream(0, 1 << 64)
    # a float key would be truncated to another key's stream
    with pytest.raises(TypeError, match="seed must be an integer"):
        replicate_stream(1.9, 0)
    with pytest.raises(TypeError, match="block index must be an integer"):
        replicate_stream(0, 1.0)


# ----------------------------------------------------------------- monte carlo


def test_monte_carlo_is_reproducible(table40):
    plan = make_plan(Partition.from_parts([4, 3]), table40)
    first = monte_carlo(plan, 1.5, 2000, seed=77)
    second = monte_carlo(plan, 1.5, 2000, seed=77)
    assert first == second
    assert first != monte_carlo(plan, 1.5, 2000, seed=78)
    assert first == monte_carlo(plan, 1.5, np.int64(2000), seed=np.uint64(77))


def test_monte_carlo_reports_the_ints_it_checked(table40):
    # a numpy replicate count and seed come back as the plain ints they equal
    plan = make_plan(Partition.from_parts([4, 3]), table40)
    report = monte_carlo(plan, 1.0, np.int64(10), np.uint64(3))
    assert (type(report.replicates), type(report.seed)) == (int, int)
    assert report == monte_carlo(plan, 1.0, 10, 3)


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
    with pytest.raises(TypeError, match="replicates must be an integer"):
        monte_carlo(plan, 1.0, 2.0, seed=0)
    with pytest.raises(ValueError):
        monte_carlo(plan, 1.0, 10, seed=-1)
    # seed 1.5 would report seed 1.5 with seed 1's estimates
    with pytest.raises(TypeError, match="seed must be an integer"):
        monte_carlo(plan, 1.0, 5, seed=1.5)
    for theta in (math.nan, math.inf, -math.inf, 1e200, 1e-200):
        with pytest.raises(ValueError, match="finite"):
            monte_carlo(plan, theta, 10, seed=0)


def test_float32_theta_warns_nothing(table40):
    # check_theta compares float(theta): 1e100 cast to float32 would overflow
    plan = make_plan(Partition.from_parts([4, 3]), table40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = monte_carlo(plan, np.float32(2.0), 5, 0)
        assert theoretical_variance(plan, np.float32(2.0)) == theoretical_variance(plan, 2.0)
        with pytest.raises(ValueError, match="finite"):
            monte_carlo(plan, np.float32(np.inf), 5, 0)
    assert report == monte_carlo(plan, 2.0, 5, 0)


def test_monte_carlo_rejects_theta_before_drawing(table40, monkeypatch):
    def no_draws(*args):
        raise AssertionError("drew before checking theta")

    monkeypatch.setattr(simulation, "replicate_stream", no_draws)
    plan = make_plan(Partition.from_parts([2]), table40)
    for theta in (1e200, 1e-200):
        with pytest.raises(ValueError, match="finite"):
            monte_carlo(plan, theta, 10, seed=0)
    # both ends of the range are accepted
    for theta in (1e-100, 1e100):
        with pytest.raises(AssertionError, match="drew"):
            monte_carlo(plan, theta, 10, seed=0)


def test_variance_outside_the_float_range_raises_before_drawing(monkeypatch):
    # one part of 2 on a table whose variance factor is 1e150 or 1e-150:
    # sigma**2 times it overflowed to inf or fell to 0.0, reported after every draw
    def no_draws(*args):
        raise AssertionError("drew before checking the variance")

    monkeypatch.setattr(simulation, "replicate_stream", no_draws)
    low, high = Fraction(1, 10**50), Fraction(10**50)
    for d, k_sq, sigmas in [(low, high, (1e100, 1e80)), (high, low, (1e-100, 1e-80))]:
        table = CoefficientTable("far", (CoefficientEntry(2, d, k_sq),))
        plan = make_plan(Partition.from_parts([2]), table)
        for sigma in sigmas:  # beyond the range, then subnormal or just past it
            with pytest.raises(ValueError, match="must be a normal float"):
                theoretical_variance(plan, sigma)
            with pytest.raises(ValueError, match="must be a normal float"):
                monte_carlo(plan, sigma, 10, seed=0)
        assert theoretical_variance(plan, 1.0) == float(plan.variance_factor)
        with pytest.raises(AssertionError, match="drew"):
            monte_carlo(plan, 1.0, 10, seed=0)


def test_theta_is_taken_as_its_float(table40):
    # a Fraction or Decimal theta draws what the equal float draws; a str,
    # which float() would parse, is refused
    plan = make_plan(Partition.from_parts([4, 3]), table40)
    assert monte_carlo(plan, Fraction(2), 5, 0) == monte_carlo(plan, 2.0, 5, 0)
    assert monte_carlo(plan, Decimal("0.5"), 3, 1) == monte_carlo(plan, 0.5, 3, 1)
    draws = sample_exponential(3, Decimal("2"), replicate_stream(0, 0))
    assert draws.tobytes() == sample_exponential(3, 2.0, replicate_stream(0, 0)).tobytes()
    for theta in ("2", b"2", bytearray(b"2")):
        with pytest.raises(TypeError, match="theta must be a number"):
            monte_carlo(plan, theta, 5, 0)
        with pytest.raises(TypeError, match="theta must be a number"):
            sample_exponential(3, theta, replicate_stream(0, 0))


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


# ------------------------------------------------------ bit identity, chunking


def reference_monte_carlo(plan, theta, replicates, seed):
    """The block loop as it stood before chunking, kept as the oracle.

    Each block draws all its rows x n uniforms at once, transforms them
    out of place, and takes every part's range with a max and a min
    over that part's columns.
    """
    n = plan.partition.n
    sizes = [size for size, count, _ in plan.weights for _ in range(count)]
    weights = np.array([float(a) for _, count, a in plan.weights for _ in range(count)])
    offsets = np.concatenate(([0], np.cumsum(sizes)))

    estimates = np.empty(replicates)
    blocks = (replicates + BLOCK_REPLICATES - 1) // BLOCK_REPLICATES
    for b in range(blocks):
        low = b * BLOCK_REPLICATES
        high = min(low + BLOCK_REPLICATES, replicates)
        u = replicate_stream(seed, b).random((high - low) * n)
        x = (-theta * np.log1p(-u)).reshape(high - low, n)
        ranges = np.empty((high - low, len(sizes)))
        for i in range(len(sizes)):
            block = x[:, offsets[i] : offsets[i + 1]]
            ranges[:, i] = block.max(axis=1) - block.min(axis=1)
        estimates[low:high] = (ranges * weights).sum(axis=1)

    variance = float(estimates.var(ddof=1)) if replicates > 1 else 0.0
    return SimulationReport(
        n=n,
        theta=float(theta),
        replicates=replicates,
        seed=seed,
        mean_estimate=float(estimates.mean()),
        variance_estimate=variance,
        mean_std_error=math.sqrt(variance / replicates),
        theoretical_variance=theoretical_variance(plan, theta),
        plan_partition=plan.partition,
    )


REFERENCE_PLANS = {
    "pair": Partition.from_parts([2]),
    "wide": Partition.from_parts([60]),
    "mixed": Partition.from_parts([9, 6, 6, 5, 4, 4, 4, 3, 2, 2, 2]),
    "wide_and_small": Partition.from_parts([50, 50, 5, 4, 4, 3, 2]),
    "fours22": rule_of_fours(22),
    "fours401": rule_of_fours(401),
}
REFERENCE_REPS = (1, 2, BLOCK_REPLICATES - 1, BLOCK_REPLICATES, BLOCK_REPLICATES + 1,
                  2 * BLOCK_REPLICATES + 3)
# The reference costs the most per block on the widest plan (0.6 s and
# 630 MB at n = 401), so it runs at the sizes that cross no boundary and
# at one block plus one; the other plans take every size.
REFERENCE_CASES = [(name, reps) for name in REFERENCE_PLANS for reps in REFERENCE_REPS
                   if name != "fours401" or reps in (1, 2, BLOCK_REPLICATES + 1)]
# prime: a block splits into 66 equal chunks of 993 rows, the most that fit
# in 997, and the last draws 2 rows past the block (66 * 993 = 65536 + 2)
CHUNK_ROWS = 997


@pytest.fixture(scope="module")
def table401():
    return exponential_table(401)


def _assert_matches_reference(monkeypatch, plan, theta, replicates, rows):
    monkeypatch.setattr(simulation, "_CHUNK_BYTES", 8 * plan.partition.n * rows)
    seed = 2**64 - 1 - replicates
    assert monte_carlo(plan, theta, replicates, seed) == reference_monte_carlo(
        plan, theta, replicates, seed)


@pytest.mark.parametrize("name, replicates", REFERENCE_CASES)
def test_monte_carlo_matches_reference(table401, monkeypatch, name, replicates):
    plan = make_plan(REFERENCE_PLANS[name], table401)
    _assert_matches_reference(monkeypatch, plan, 1.0, replicates, CHUNK_ROWS)


@pytest.mark.parametrize("parts, theta, replicates", [
    ((2,), 1.7, 3000),
    ((5, 5, 4, 4, 4), 1.7, 3000),
    (REFERENCE_PLANS["mixed"].parts, 1.7, 3000),
    ((60,), 1.7, 500),
    ((50, 50, 5, 4, 4, 3, 2), 2.5, 2000),
    ((4, 3), 1e-100, BLOCK_REPLICATES + 3),
], ids=["pair", "fours22", "mixed", "wide", "wide_and_small", "two_blocks"])
def test_monte_carlo_scores_each_replicate_as_estimate_does(table401, parts, theta, replicates):
    # replicate i is estimate() of the sample that successive
    # sample_exponential calls draw from block i // BLOCK_REPLICATES's
    # stream; numpy sums a row of 100 parts in another order, so the fours
    # at n = 401 agree in the mean only
    plan = make_plan(Partition.from_parts(parts), table401)
    seed = 7
    scores = []
    for block_start in range(0, replicates, BLOCK_REPLICATES):
        stream = replicate_stream(seed, block_start // BLOCK_REPLICATES)
        for _ in range(min(BLOCK_REPLICATES, replicates - block_start)):
            scores.append(estimate(sample_exponential(plan.partition.n, theta, stream), plan))
    report = monte_carlo(plan, theta, replicates, seed)
    assert report.mean_estimate == float(np.mean(scores))
    assert report.variance_estimate == float(np.var(scores, ddof=1))


def _record_fold_calls(monkeypatch):
    """The list of fold-call lists monte_carlo builds, filled as it builds them."""
    built = []
    fold_calls = simulation._fold_calls

    def kept(*args):
        built.append(fold_calls(*args))
        return built[-1]

    monkeypatch.setattr(simulation, "_fold_calls", kept)
    return built


def test_fold_calls_are_built_once_per_call(table401, monkeypatch):
    # every chunk of a call has one shape, even a block's last and the
    # call's last, so each run of equal parts builds its minimum and its
    # maximum folds once
    built = _record_fold_calls(monkeypatch)
    plan = make_plan(REFERENCE_PLANS["mixed"], table401)
    _assert_matches_reference(monkeypatch, plan, 1.0, 2 * BLOCK_REPLICATES + 3, CHUNK_ROWS)
    assert len(built) == 2 * len(plan.weights)


# runs of fewer parts than a chunk has rows, and (fours at n = 22 in
# 3-row chunks) of more
@pytest.mark.parametrize("name, rows", [("mixed", CHUNK_ROWS), ("fours22", 3),
                                        ("wide_and_small", 3)])
def test_fold_calls_run_over_contiguous_operands(table401, monkeypatch, name, rows):
    # the logs are entry-major, so each call reads two contiguous halves
    # and writes contiguous workspace; only a fold's last call writes a
    # strided view, its run's columns of the extremes
    built = _record_fold_calls(monkeypatch)
    plan = make_plan(REFERENCE_PLANS[name], table401)
    _assert_matches_reference(monkeypatch, plan, 1.0, 3 * rows + 2, rows)
    assert len(built) == 2 * len(plan.weights)
    for calls in built:
        for _, first, second, into in calls:
            assert first.flags.c_contiguous and second.flags.c_contiguous
        assert all(into.flags.c_contiguous for *_, into in calls[:-1])


@pytest.mark.parametrize("width", range(2, 34))
def test_fold_calls_reduce_every_width(width):
    # the parts' k-th entries, (width, rows, parts), as a strided view of
    # row-major logs <= 0 that include -0.0; work holds just (width + 1) // 2 rows
    rows, count = 64, 3
    logs = np.log1p(-np.random.default_rng(width).random(rows * count * width))
    logs[:: 7] = -0.0
    entries = logs.reshape(rows, count, width).transpose(2, 0, 1)
    work = np.empty(((width + 1) // 2, rows, count))
    for ufunc in (np.minimum, np.maximum):
        out = np.empty((rows, count))
        for fold, first, second, into in simulation._fold_calls(ufunc, entries, work, out):
            fold(first, second, out=into)
        assert out.tobytes() == ufunc.reduce(entries, axis=0).tobytes()


# every plan within one block, and the cheap plans across a block boundary
THETA_BOUND_CASES = ([(name, 3 * CHUNK_ROWS + 2) for name in REFERENCE_PLANS]
                     + [(name, BLOCK_REPLICATES + 1) for name in ("pair", "mixed", "fours22")])


@pytest.mark.parametrize("theta", (1e-100, 1e100))
@pytest.mark.parametrize("name, replicates", THETA_BOUND_CASES)
def test_monte_carlo_matches_reference_at_theta_bounds(table401, monkeypatch, name,
                                                       replicates, theta):
    plan = make_plan(REFERENCE_PLANS[name], table401)
    _assert_matches_reference(monkeypatch, plan, theta, replicates, CHUNK_ROWS)


@pytest.mark.parametrize("name, replicates", [
    ("pair", 2), ("pair", BLOCK_REPLICATES + 1), ("fours22", 2), ("fours22", 3 * 3 + 2)])
def test_monte_carlo_matches_reference_in_few_row_chunks(table401, monkeypatch, name,
                                                         replicates):
    plan = make_plan(REFERENCE_PLANS[name], table401)
    _assert_matches_reference(monkeypatch, plan, 1.0, replicates, 3)


# Logs l = log1p(-u) <= 0: -0.0 (u = 0), the least, near log1p(-(1 - 2**-53)),
# tiny magnitudes whose products underflow at small theta, and neighbours
# one ulp apart
_DEEPEST = math.log1p(-(1 - 2**-53))
EXTREME_LOGS = [
    [-0.0, _DEEPEST, -1e-300],
    [-0.0, -5e-324, -2.2e-308, -1e-17],
    [_DEEPEST, math.nextafter(_DEEPEST, 0), math.nextafter(_DEEPEST, -math.inf)],
    [-5e-324, -1e-323, -0.0, -1.5e-323],
    [-1.0, math.nextafter(-1.0, 0), -0.5, math.nextafter(-0.5, -1)],
]


@pytest.mark.parametrize("theta", (1e-100, 1.0, 1e100))
@pytest.mark.parametrize("logs", EXTREME_LOGS)
def test_scaled_extremes_are_extremes_of_the_scaled_logs(logs, theta):
    """monte_carlo folds the logs and scales only each part's least and
    greatest: max(-theta * l) is -theta * min(l) and min(-theta * l) is
    -theta * max(l), bit for bit, since rounding a product with a negative
    constant is monotone."""
    logs = np.array(logs)
    draws = logs * -theta
    assert draws.max().tobytes() == (logs.min() * -theta).tobytes()
    assert draws.min().tobytes() == (logs.max() * -theta).tobytes()


def test_simulation_memory_is_bounded(cli_peak):
    """simulate 1500 --reps 65536 peaks under 150 MB.

    One block of 65536 x 1500 doubles is 786 MB before any temporary;
    drawing it in chunks leaves a few MiB of chunk arrays plus the
    estimates.
    """
    code, peak = cli_peak("simulate", "1500", "--reps", "65536", "--format", "json")
    assert code == 0
    assert peak < 150e6


def test_simulation_takes_8_bytes_per_replicate(cli_peak):
    """The estimates are the one per-replicate array: 4e6 replicates of
    n = 2 peak under 12 bytes each above a single replicate.  Holding
    their variance's temporary too takes about 16."""
    replicates = 4_000_000
    code, peak = cli_peak("simulate", "2", "--reps", str(replicates), "--format", "json")
    base_code, base = cli_peak("simulate", "2", "--reps", "1", "--format", "json")
    assert code == base_code == 0
    assert peak - base < 12 * replicates


def test_simulation_chunks_take_under_1_mib(cli_peak):
    """simulate 9 --reps 456618 peaks less than 8 bytes per replicate plus
    1 MiB above a single replicate: past the estimates, only a chunk's
    draws, fold workspace and per-part extremes remain."""
    replicates = 456_618
    code, peak = cli_peak("simulate", "9", "--reps", str(replicates), "--format", "json")
    base_code, base = cli_peak("simulate", "9", "--reps", "1", "--format", "json")
    assert code == base_code == 0
    assert peak - base < 8 * replicates + (1 << 20)


def test_simulate_peaks_below_a_bare_numpy_random_import(cli_peak):
    """A small simulate, whose process cli.run keeps free of OpenSSL, peaks
    below a cold ``import numpy.random`` alone, which maps libcrypto."""
    code, peak = cli_peak("simulate", "8", "--reps", "10")
    bare_code, bare = cli_peak("-c", "import numpy.random")
    assert code == bare_code == 0
    assert peak < bare
