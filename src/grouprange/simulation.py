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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import EstimatorPlan, theoretical_variance
from .partitions import Partition

__all__ = [
    "BLOCK_REPLICATES",
    "SimulationReport",
    "replicate_stream",
    "sample_exponential",
    "monte_carlo",
]

BLOCK_REPLICATES = 1 << 16

_SEED_LIMIT = 1 << 64


@dataclass(frozen=True)
class SimulationReport:
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


def _check_seed(seed: int) -> None:
    if not 0 <= seed < _SEED_LIMIT:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")


def replicate_stream(seed: int, block: int) -> np.random.Generator:
    """Independent Philox substream for one block of replicates.

    Distinct (seed, block) keys give statistically independent
    counter-based streams, which is what makes the block schedule
    irrelevant to the results.
    """
    _check_seed(seed)
    if block < 0:
        raise ValueError(f"block index must be >= 0, got {block}")
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_exponential(n: int, theta: float, stream: np.random.Generator) -> np.ndarray:
    """n inverse-CDF draws x = -theta * ln(1 - U) from the stream."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be finite and > 0, got {theta}")
    u = stream.random(n)
    return -theta * np.log1p(-u)


def monte_carlo(
    plan: EstimatorPlan, theta: float, replicates: int, seed: int
) -> SimulationReport:
    """Replicated estimates of sigma = theta under a fixed plan."""
    if not 0 < theta < math.inf:
        raise ValueError(f"theta must be finite and > 0, got {theta}")
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    _check_seed(seed)

    n = plan.partition.n
    sizes = [size for size, _ in plan.weights]
    weights = np.array([float(a) for _, a in plan.weights])
    offsets = np.concatenate(([0], np.cumsum(sizes)))

    estimates = np.empty(replicates)
    blocks = (replicates + BLOCK_REPLICATES - 1) // BLOCK_REPLICATES
    for b in range(blocks):
        low = b * BLOCK_REPLICATES
        high = min(low + BLOCK_REPLICATES, replicates)
        stream = replicate_stream(seed, b)
        x = sample_exponential((high - low) * n, theta, stream).reshape(high - low, n)
        ranges = np.empty((high - low, len(sizes)))
        for i in range(len(sizes)):
            block = x[:, offsets[i] : offsets[i + 1]]
            ranges[:, i] = block.max(axis=1) - block.min(axis=1)
        estimates[low:high] = (ranges * weights).sum(axis=1)

    mean = float(estimates.mean())
    variance = float(estimates.var(ddof=1)) if replicates > 1 else 0.0
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
