"""Minimum-variance unbiased weighted-range estimation of an
exponential scale parameter.

Split a sample of n observations into subsamples of sizes n_1..n_m
(an admissible partition: every size at least 2), take each
subsample's range, and combine the ranges with exact rational weights
into an unbiased estimator of the scale.  The variance-minimizing
partition uses parts of size 4 wherever possible, with small
adjustments for the remainder of n modulo 4; this package computes the
optimum three independent ways (exact dynamic programming, a residue
graph shortest-path relaxation, and the closed form), builds the
estimator weights, and verifies the whole construction exactly and by
seeded Monte Carlo.
"""

from .coefficients import (
    CoefficientEntry,
    CoefficientTable,
    CoefficientTableError,
    export_table,
    exponential_table,
    load_table,
)
from .estimator import EstimatorPlan, estimate, make_plan, theoretical_variance
from .exactmath import generalized_harmonic
from .lemma import PEAK_RATIO, LemmaReport, envelope_h, ratio, verify_lemma
from .optimizer import (
    ResidueGraph,
    SolveResult,
    build_residue_graph,
    partition_objective,
    rule_of_fours,
    shortest_paths,
    solve_dp,
    solve_group_relaxation,
)
from .partitions import (
    Partition,
    asymptotic_admissible,
    asymptotic_unrestricted,
    count_admissible,
    count_unrestricted,
    enumerate_admissible,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_REPLICATES",
    "CoefficientEntry",
    "CoefficientTable",
    "CoefficientTableError",
    "EstimatorPlan",
    "LemmaReport",
    "PEAK_RATIO",
    "Partition",
    "ResidueGraph",
    "SimulationReport",
    "SolveResult",
    "asymptotic_admissible",
    "asymptotic_unrestricted",
    "build_residue_graph",
    "count_admissible",
    "count_unrestricted",
    "enumerate_admissible",
    "envelope_h",
    "estimate",
    "export_table",
    "exponential_table",
    "generalized_harmonic",
    "load_table",
    "make_plan",
    "monte_carlo",
    "partition_objective",
    "ratio",
    "replicate_stream",
    "rule_of_fours",
    "sample_exponential",
    "shortest_paths",
    "solve_dp",
    "solve_group_relaxation",
    "theoretical_variance",
    "verify_lemma",
]

# Served by __getattr__ so that importing the package, and every CLI
# command but `simulate`, never loads numpy.
_SIMULATION_NAMES = frozenset({
    "BLOCK_REPLICATES",
    "SimulationReport",
    "monte_carlo",
    "replicate_stream",
    "sample_exponential",
})


def __getattr__(name: str):
    if name in _SIMULATION_NAMES:
        from . import simulation

        return getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SIMULATION_NAMES)
