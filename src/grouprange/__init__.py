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

import importlib

__version__ = "0.1.0"

# Each module's __all__ is its public API; the package lists no name of its own.  __getattr__
# serves every name, so importing the package loads none of its modules: a name loads the exact
# modules up to its own, cheapest first, and a name simulation.__all__ lists loads numpy.
_EXACT_MODULES = ("partitions", "exactmath", "coefficients", "optimizer", "estimator", "lemma")
_SIMULATION_NAMES = frozenset({"BLOCK_REPLICATES", "SimulationReport", "monte_carlo",
                               "replicate_stream", "sample_exponential"})
_SUBMODULES = (*_EXACT_MODULES, "simulation", "cli")


def _module(short: str):
    return importlib.import_module(f"{__name__}.{short}")


def __getattr__(name: str):
    if name == "__all__":
        return sorted(_SIMULATION_NAMES.union(*(_module(m).__all__ for m in _EXACT_MODULES)))
    if name in _SIMULATION_NAMES:
        return getattr(_module("simulation"), name)
    if name in _SUBMODULES:  # `grouprange.cli` after a bare `import grouprange`
        return _module(name)
    for module in map(_module, _EXACT_MODULES):
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()).union(__getattr__("__all__")))
