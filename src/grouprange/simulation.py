"""Seeded Monte-Carlo verification of estimator plans.

Sampling is inverse-CDF: with U uniform on [0, 1), x = -theta * ln(1 - U)
is exponential with scale theta (computed as log1p(-U) for accuracy
near U = 0; the formula is identical).

Determinism contract: replicates are processed in fixed-size blocks of
BLOCK_REPLICATES.  Block b draws from its own counter-based Philox
substream keyed by (seed, b), so any scheduling of blocks, serial or
parallel, produces bit-identical draws and estimates, and replicate i
always maps to row i % BLOCK_REPLICATES of block i // BLOCK_REPLICATES.
Per-run mean and variance reduce the replicate estimates with numpy's
fixed pairwise summation over a single array, so a report depends only
on (plan, theta, replicates, seed).

Memory: a call draws each block in equal chunks of at most _CHUNK_BYTES
of uniforms, which continue one Philox stream, so they draw the rows one
draw of the block would.  A block's last chunk sums only the rows left in
the block, and a row's sum over its parts does not depend on how many
rows are summed, so each block writes only its own estimates and blocks
may be reduced in any order.  Within a chunk, each run of equal,
contiguous parts is reduced at once: the k-th entries of its parts are
folded in halves with elementwise maximum and minimum, about log2(size)
calls per run, whose exact extremes equal a per-part max and min.  The
folds run on the logs l = log1p(-U), and only each part's two extremes
are scaled by -theta.  The fold calls are built once over one draw
buffer, and the weighted sum and the variance are reduced in place, so a
call holds the chunk, a fold workspace of at most 2/3 of it, each part's
extremes (at most a chunk together) and 8 bytes per replicate for the
estimates, whatever n is.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .estimator import EstimatorPlan, check_seed, check_theta, theoretical_variance
from .partitions import Partition, check_integer

__all__ = [
    "BLOCK_REPLICATES",
    "SimulationReport",
    "replicate_stream",
    "sample_exponential",
    "monte_carlo",
]

BLOCK_REPLICATES = 1 << 16

# The most bytes of uniforms a chunk draws; CHANGES.md records the timings.
_CHUNK_BYTES = 1 << 18


class SimulationReport(NamedTuple):
    """Summary of one Monte-Carlo run.

    mean_std_error = sqrt(variance_estimate / replicates).  With a
    single replicate the sample variance is undefined and reported
    as 0.0.
    """

    n: int
    theta: float
    replicates: int
    seed: int
    mean_estimate: float
    variance_estimate: float
    mean_std_error: float
    theoretical_variance: float
    plan_partition: Partition


def replicate_stream(seed: int, block: int) -> np.random.Generator:
    """Independent Philox substream for one block of replicates.

    Distinct (seed, block) keys give statistically independent
    counter-based streams, which is what makes the block schedule
    irrelevant to the results.
    """
    check_seed("seed", seed)
    check_seed("block index", block)
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _log_draws(stream: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out with l = log1p(-U) <= 0 from the stream, without
    temporaries, so that -theta * l is exponential with scale theta."""
    stream.random(out=out)
    np.negative(out, out=out)
    np.log1p(out, out=out)
    return out


def sample_exponential(n: int, theta: float, stream: np.random.Generator) -> np.ndarray:
    """n inverse-CDF draws x = -theta * ln(1 - U) from the stream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    theta = check_theta("theta", theta)
    x = _log_draws(stream, np.empty(n))
    x *= -theta
    return x


def _fold_calls(
    ufunc: np.ufunc, entries: np.ndarray, work: np.ndarray, out: np.ndarray
) -> list[tuple]:
    """Calls (ufunc, first, second, into) that leave ufunc over axis 0 of
    entries in out, for ufunc maximum or minimum and k >= 2 rows.

    Each call combines the first and the last half of the rows left, so
    the k rows take about log2(k) elementwise calls, each over whole rows
    of work, and the last, on two rows, writes out; work needs (k + 1) // 2
    rows.  For odd k the first call takes the middle row into both halves;
    each later call leaves an odd middle row where it is.  Maximum and
    minimum are exact, so out equals a direct max or min over the axis.
    ufunc.reduceat measured 2 to 14.5 times slower than these calls on the
    narrow parts simulate runs (CHANGES.md).
    """
    calls, source, width = [], entries, len(entries)
    half = (width + 1) // 2
    while width > 1:
        calls.append((ufunc, source[:half], source[width - half : width], work[:half]))
        source, width = work, (width + 1) // 2
        half = width // 2
    _, first, second, _ = calls.pop()  # the last call leaves one row: into out
    calls.append((ufunc, first[0], second[0], out))
    return calls


def monte_carlo(
    plan: EstimatorPlan, theta: float, replicates: int, seed: int
) -> SimulationReport:
    """Replicated estimates of sigma = theta under a fixed plan."""
    theta = check_theta("theta", theta)
    check_integer("replicates", replicates)
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    check_seed("seed", seed)

    n = plan.partition.n
    # one float weight per part, in the plan's order
    weights = np.repeat([float(a) for _, _, a in plan.weights], [m for _, m, _ in plan.weights])
    # each block in equal chunks of at most _CHUNK_BYTES of uniforms
    per_block = min(BLOCK_REPLICATES, replicates)
    chunks = math.ceil(per_block / max(1, _CHUNK_BYTES // (8 * n)))
    chunk = math.ceil(per_block / chunks)
    # per part, the least (row 0) and the greatest (row 1) log draw of each row
    extremes = np.empty((2, chunk, len(weights)))
    work = np.empty(chunk * max((size + 1) // 2 * count for size, count, _ in plan.weights))
    logs = np.empty((chunk, n))
    # the folds of every run of equal parts, as views over whole buffers
    calls = []
    column = offset = 0
    for size, count, _ in plan.weights:
        parts = logs[:, offset : offset + size * count].reshape(chunk, count, size)
        # entries[k] holds entry k of every part of the run, (chunk, count)
        entries = parts.transpose(2, 0, 1)
        space = work[: (size + 1) // 2 * chunk * count].reshape(-1, chunk, count)
        run = slice(column, column + count)
        calls += _fold_calls(np.minimum, entries, space, extremes[0, :, run])
        calls += _fold_calls(np.maximum, entries, space, extremes[1, :, run])
        column += count
        offset += size * count

    estimates = np.empty(replicates)
    for b, block_start in enumerate(range(0, replicates, BLOCK_REPLICATES)):
        stream = replicate_stream(seed, b)
        block_end = min(block_start + BLOCK_REPLICATES, replicates)
        for start in range(block_start, block_end, chunk):
            _log_draws(stream, logs)
            for ufunc, first, second, into in calls:
                ufunc(first, second, out=into)
            # x = -theta * l: rounding a product with a negative constant
            # is monotone, so a part's greatest x is -theta times its least
            # l and its least x -theta times its greatest l, bit for bit
            highs, lows = np.multiply(extremes, -theta, out=extremes)
            ranges = np.subtract(highs, lows, out=highs)
            np.multiply(ranges, weights, out=ranges)
            rows = min(chunk, block_end - start)
            ranges[:rows].sum(axis=1, out=estimates[start : start + rows])

    mean = float(estimates.mean())
    # estimates.var(ddof=1) without its temporary: numpy's own steps
    # (x - mean, x * x, a pairwise sum over R - 1) in the estimates
    estimates -= mean
    np.multiply(estimates, estimates, out=estimates)
    variance = float(estimates.sum() / (replicates - 1)) if replicates > 1 else 0.0
    return SimulationReport(
        n=n,
        theta=theta,
        replicates=replicates,
        seed=seed,
        mean_estimate=mean,
        variance_estimate=variance,
        mean_std_error=math.sqrt(variance / replicates),
        theoretical_variance=theoretical_variance(plan, theta),
        plan_partition=plan.partition,
    )
