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

# Each module's __all__ is its public API; the package lists no name of its own.
from . import coefficients, estimator, exactmath, lemma, optimizer, partitions
from .coefficients import *
from .estimator import *
from .exactmath import *
from .lemma import *
from .optimizer import *
from .partitions import *

__version__ = "0.1.0"

# Served by __getattr__ so that importing the package, and every CLI
# command but `simulate`, never loads numpy; simulation.__all__ lists the same.
_SIMULATION_NAMES = frozenset({
    "BLOCK_REPLICATES",
    "SimulationReport",
    "monte_carlo",
    "replicate_stream",
    "sample_exponential",
})

__all__ = sorted(_SIMULATION_NAMES.union(*(
    module.__all__ for module in (coefficients, estimator, exactmath, lemma, optimizer, partitions)
)))


def __getattr__(name: str):
    if name in _SIMULATION_NAMES:
        from . import simulation

        return getattr(simulation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SIMULATION_NAMES)
