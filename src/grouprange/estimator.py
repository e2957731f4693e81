"""Unbiased weighted-range estimation of the scale parameter.

Given an admissible partition (n_1, ..., n_m) of n, split an ordered
sample of n observations into contiguous blocks of those sizes and
take each block's range R_i.  The estimator

    sigma_hat = sum_i a_i * R_i,
    a_i = (d_{n_i} / k_sq_{n_i}) / sum_l (d_{n_l}**2 / k_sq_{n_l})

is the minimum-variance unbiased estimator among weighted sums of the
block ranges: unbiasedness is the exact identity sum_i a_i d_{n_i} = 1,
and

    Var(sigma_hat) = sigma**2 / sum_l C_{n_l}

so the variance factor is the reciprocal of the allocation objective.
Weights depend only on the block's size, not its position, and the
estimate is invariant under permutations within a block.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple, Sequence

from .coefficients import CoefficientTable
from .optimizer import partition_objective
from .partitions import Partition, check_integer

__all__ = ["EstimatorPlan", "make_plan", "estimate", "theoretical_variance"]


def check_theta(name: str, theta: float) -> float:
    """Return float(theta), which callers compute with: a Fraction, a Decimal
    or a numpy float32 (which would overflow casting 1e100) acts as its float.

    Raise TypeError for a str or bytes, which float() would parse, and
    ValueError unless 1e-100 <= theta <= 1e100 (so not NaN): there theta**2
    stays a normal float; theoretical_variance checks its product with a plan's.
    """
    if isinstance(theta, (str, bytes, bytearray)):
        raise TypeError(f"{name} must be a number, got {theta!r}")
    value = float(theta)
    if not 1e-100 <= value <= 1e100:
        raise ValueError(f"{name} must be finite and in [1e-100, 1e100], got {theta}")
    return value


def check_seed(name: str, seed: int) -> int:
    """seed as an int; TypeError unless an integer, ValueError unless 0 <= seed < 2**64 (Philox)."""
    if not 0 <= (seed := check_integer(name, seed)) < 1 << 64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {seed}")
    return seed


class EstimatorPlan(NamedTuple):
    """Exact weights for one partition.

    ``weights`` holds one (block size, block count, weight) triple per
    distinct block size, in descending size order, which is how
    ``estimate`` slices the sample.  The weight is that of each block's
    range, not of the size's blocks together.  ``variance_factor`` is
    Var(sigma_hat) / sigma**2, exact.
    """

    partition: Partition
    weights: tuple[tuple[int, int, Fraction], ...]
    variance_factor: Fraction


def make_plan(partition: Partition, table: CoefficientTable) -> EstimatorPlan:
    """Exact estimator weights and variance factor for a partition."""
    total = partition_objective(partition, table)  # raises if a part is not covered
    weights = tuple(
        (j, m, (table.d(j) / table.k_sq(j)) / total) for j, m in reversed(partition.frequencies)
    )
    # unbiasedness is an algebraic identity; recheck it exactly
    assert sum(m * a * table.d(j) for j, m, a in weights) == 1
    return EstimatorPlan(partition, weights, 1 / total)


def estimate(sample: Sequence[float], plan: EstimatorPlan) -> float:
    """Weighted sum of block ranges over a sample of length plan.partition.n.

    Blocks are consumed contiguously in the plan's (descending) order;
    the caller controls which observations land in which block.  NaN
    or infinite observations raise ValueError (NaN ranges are order-dependent).
    """
    n = plan.partition.n
    if len(sample) != n:
        raise ValueError(f"sample has {len(sample)} observations, plan needs {n}")
    if not all(math.isfinite(x) for x in sample):
        raise ValueError("sample contains a non-finite observation")
    total = 0.0
    position = 0
    for size, count, weight in plan.weights:
        for _ in range(count):
            block = sample[position : position + size]
            position += size
            total += float(weight) * (max(block) - min(block))
    return total


def theoretical_variance(plan: EstimatorPlan, sigma: float) -> float:
    """Var(sigma_hat) = sigma**2 * variance_factor, which must be a normal float."""
    value = float(plan.variance_factor) * check_theta("sigma", sigma) ** 2
    if not sys.float_info.min <= value <= sys.float_info.max:
        raise ValueError(f"sigma**2 * variance_factor must be a normal float, got {value}")
    return value
