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
of raw 64-bit Philox words, which continue one stream, so they draw the
rows one draw of the block would.  Generator.random turns a word w into
U = (w >> 11) * 2**-53, and a 53-bit integer converts to a double
exactly, so (w >> 11) * -2**-53 is -U bit for bit.  A block's last chunk
sums only the rows left in the block, and a row's sum over its parts
does not depend on how many rows are summed, so each block writes only
its own estimates and blocks may be reduced in any order.  Each chunk's
shifted words are copied into one logs buffer laid out entry-major by
runs of equal, contiguous parts, and scaled there: a run holds entry k
of every part and row, with the longer of its part count and the chunk's
rows innermost, then entry k + 1, so the k-th entries of its parts are
one contiguous block.  Each run is folded in halves with elementwise
maximum and minimum over those blocks, about log2(size) contiguous calls
per run, whose exact extremes equal a per-part max and min.  The folds
run on the logs l = log1p(-U), and only each part's two extremes are
scaled by -theta.  The fold calls are built once over the logs buffer,
and the weighted sum and the variance are reduced in place, so a call
holds the chunk's words, its logs (as many bytes), a fold workspace of
at most 2/3 of them, each part's extremes (at most as many bytes
together) and 8 bytes per replicate for the estimates, whatever n is.
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

# The most bytes of raw words a chunk draws; CHANGES.md records the timings.
_CHUNK_BYTES = 192 << 10


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


def sample_exponential(n: int, theta: float, stream: np.random.Generator) -> np.ndarray:
    """n inverse-CDF draws x = -theta * ln(1 - U) from the stream, taken
    in place as -theta * log1p(-U)."""
    n = check_integer("n", n, 1)
    theta = check_theta("theta", theta)
    x = stream.random(out=np.empty(n))
    np.negative(x, out=x)
    np.log1p(x, out=x)
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
    Over monte_carlo's entry-major logs, ufunc.reduce over axis 0 measured
    1.05 to 2.9 times slower than these calls, and ufunc.reduceat over
    row-major draws 7 to 18 times slower on narrow parts (CHANGES.md).
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
    check_integer("replicates", replicates, 1)
    check_seed("seed", seed)
    expected = theoretical_variance(plan, theta)  # raises before any draw

    n = plan.partition.n
    # one float weight per part, in the plan's order
    weights = np.repeat([float(a) for _, _, a in plan.weights], [m for _, m, _ in plan.weights])
    # each block in equal chunks of at most _CHUNK_BYTES of raw words
    per_block = min(BLOCK_REPLICATES, replicates)
    chunks = math.ceil(per_block / max(1, _CHUNK_BYTES // (8 * n)))
    chunk = math.ceil(per_block / chunks)
    # per part, the least (row 0) and the greatest (row 1) log draw of each row
    extremes = np.empty((2, chunk, len(weights)))
    work = np.empty(chunk * max((size + 1) // 2 * count for size, count, _ in plan.weights))
    # entry-major: each run of equal parts holds entry k of every part and
    # row, then entry k + 1
    logs = np.empty(chunk * n)
    # per run: its columns of the raw words, the axes that take them to its
    # slice of logs, that slice, and the folds over it
    runs, calls = [], []
    column = offset = 0
    for size, count, _ in plan.weights:
        block = logs[offset * chunk : (offset + size * count) * chunk]
        ends = extremes[:, :, column : column + count]
        # the longer of the parts and the rows innermost: the copy into the
        # logs ran up to 5 times slower over a short innermost axis
        if count > chunk:
            entries, axes = block.reshape(size, chunk, count), (2, 0, 1)
        else:
            entries, axes = block.reshape(size, count, chunk), (2, 1, 0)
            ends = ends.transpose(0, 2, 1)
        runs.append((slice(offset, offset + size * count), axes, entries))
        space = work[: (size + 1) // 2 * count * chunk].reshape(-1, *entries.shape[1:])
        calls += _fold_calls(np.minimum, entries, space, ends[0])
        calls += _fold_calls(np.maximum, entries, space, ends[1])
        column += count
        offset += size * count

    estimates = np.empty(replicates)
    for b, block_start in enumerate(range(0, replicates, BLOCK_REPLICATES)):
        words = replicate_stream(seed, b).bit_generator
        block_end = min(block_start + BLOCK_REPLICATES, replicates)
        for start in range(block_start, block_end, chunk):
            # -U bit for bit, as the module docstring says; the shifted
            # words lie below 2**53, and as int64 they cast faster
            raw = words.random_raw((chunk, n))
            raw >>= 11
            raw = raw.view(np.int64)
            for columns, axes, entries in runs:
                parts = raw[:, columns].reshape(chunk, -1, len(entries))  # (chunk, count, size)
                np.copyto(entries, parts.transpose(axes))
            np.multiply(logs, -(2.0**-53), out=logs)
            np.log1p(logs, out=logs)
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
        theoretical_variance=expected,
        plan_partition=plan.partition,
    )
