"""Seeded Monte-Carlo verification of estimator plans.

Sampling is inverse-CDF: with U uniform on [0, 1), x = -theta * ln(1 - U)
is exponential with scale theta (computed as log1p(-U) for accuracy
near U = 0; the formula is identical).

Determinism contract: replicates are processed in fixed-size blocks of
BLOCK_REPLICATES.  Block b draws from its own counter-based Philox
substream keyed by (seed, b), so any scheduling of blocks, serial or
parallel, produces bit-identical draws, and replicate i always maps to
row i % BLOCK_REPLICATES of block i // BLOCK_REPLICATES.  Per-run mean
and variance reduce the replicate estimates with numpy's fixed
pairwise summation over a single array, so a report depends only on
(plan, theta, replicates, seed).

Memory: a block's rows are drawn in chunks of about _CHUNK_BYTES of
uniforms.  Successive draws from one Philox stream continue the same
sequence, so the chunks of a block together draw exactly what one
draw of the whole block would.  Within a chunk, the parts of each size
in the plan (its run of equal, contiguous parts) are reduced at once:
the k-th entries of its parts are folded in halves with elementwise
maximum and minimum, about log2(size) calls per run for narrow and wide
parts alike, which give the same exact extremes as a per-part max and
min.  One draw buffer serves every chunk of a call, and the weighted
sum and the variance are reduced in place, so a call holds the chunk,
a fold workspace and the per-part extremes and ranges of its rows (at
most about two chunks more) and 8 bytes per replicate for the
estimates, whatever n is.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .estimator import EstimatorPlan, check_seed, check_theta, theoretical_variance
from .partitions import Partition

__all__ = [
    "BLOCK_REPLICATES",
    "SimulationReport",
    "replicate_stream",
    "sample_exponential",
    "monte_carlo",
]

BLOCK_REPLICATES = 1 << 16

# Bytes of uniforms drawn per chunk.  Measured on a host with 2 MiB of L2
# per core, over rule-of-fours plans at n = 13 to 1500 and single parts of
# 1500: chunks of 256 KiB to 1 MiB ran within 10% of each other, while
# 2 MiB was up to 30% and 4 MiB up to 53% slower than 1 MiB.
_CHUNK_BYTES = 1 << 20


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
    if block < 0:
        raise ValueError(f"block index must be >= 0, got {block}")
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_exponential(
    n: int, theta: float, stream: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """n inverse-CDF draws x = -theta * ln(1 - U) from the stream.

    With a float64 buffer ``out`` of at least n entries, the draws fill
    and return its first n; the stream gives the same values either way.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_theta("theta", theta)
    if out is not None and len(out) < n:
        raise ValueError(f"out holds {len(out)} entries, fewer than n = {n}")
    # -theta * log1p(-u), computed in the array the stream fills: the
    # same operations on the same values, without three temporaries
    x = stream.random(n) if out is None else stream.random(out=out[:n])
    np.negative(x, out=x)
    np.log1p(x, out=x)
    x *= -theta
    return x


def _fold(entries: np.ndarray, ufunc: np.ufunc, work: np.ndarray) -> np.ndarray:
    """ufunc (maximum or minimum) over axis 0 of entries, folded into work.

    Each step combines the first and the last half of the rows left, so k
    rows take about log2(k) elementwise calls, each over whole rows of
    work; work needs (k + 1) // 2 rows.  Maximum and minimum are exact,
    so the result equals a direct max or min over the axis.
    """
    source = entries
    width = len(entries)
    while width > 1:
        half = width // 2
        ufunc(source[:half], source[width - half : width], out=work[:half])
        # the middle row of an odd width is carried over as it is
        work[half : width - half] = source[half : width - half]
        source = work
        width -= half
    return work[0]


def monte_carlo(
    plan: EstimatorPlan, theta: float, replicates: int, seed: int
) -> SimulationReport:
    """Replicated estimates of sigma = theta under a fixed plan."""
    check_theta("theta", theta)
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    check_seed("seed", seed)

    n = plan.partition.n
    # one float weight per part, in the plan's order
    weights = np.repeat([float(a) for _, _, a in plan.weights], [m for _, m, _ in plan.weights])
    chunk = max(1, min(BLOCK_REPLICATES, replicates, _CHUNK_BYTES // (8 * n)))
    highs = np.empty((chunk, len(weights)))
    lows = np.empty((chunk, len(weights)))
    work = np.empty(chunk * n)
    draws = np.empty(chunk * n)

    estimates = np.empty(replicates)
    blocks = (replicates + BLOCK_REPLICATES - 1) // BLOCK_REPLICATES
    for b in range(blocks):
        stream = replicate_stream(seed, b)
        block_end = min((b + 1) * BLOCK_REPLICATES, replicates)
        for start in range(b * BLOCK_REPLICATES, block_end, chunk):
            rows = min(chunk, block_end - start)
            x = sample_exponential(rows * n, theta, stream, draws).reshape(rows, n)
            column = offset = 0
            for size, count, _ in plan.weights:
                parts = x[:, offset : offset + size * count].reshape(rows, count, size)
                # entries[k] holds entry k of every part of the run, (rows, count)
                entries = parts.transpose(2, 0, 1)
                space = work[: (size + 1) // 2 * rows * count].reshape(-1, rows, count)
                highs[:rows, column : column + count] = _fold(entries, np.maximum, space)
                lows[:rows, column : column + count] = _fold(entries, np.minimum, space)
                column += count
                offset += size * count
            ranges = np.subtract(highs[:rows], lows[:rows], out=highs[:rows])
            np.multiply(ranges, weights, out=ranges)
            ranges.sum(axis=1, out=estimates[start : start + rows])

    mean = float(estimates.mean())
    # estimates.var(ddof=1) without its temporary: numpy's own steps
    # (x - mean, x * x, a pairwise sum over R - 1) in the estimates
    estimates -= mean
    np.multiply(estimates, estimates, out=estimates)
    variance = float(estimates.sum() / (replicates - 1)) if replicates > 1 else 0.0
    return SimulationReport(
        n=n,
        theta=float(theta),
        replicates=replicates,
        seed=seed,
        mean_estimate=mean,
        variance_estimate=variance,
        mean_std_error=math.sqrt(variance / replicates),
        theoretical_variance=theoretical_variance(plan, theta),
        plan_partition=plan.partition,
    )
