"""Span arithmetic for the traced run: self times, per-layer totals and
counters.

A span is [name, start_ns, end_ns, parent_index, meta] as written by
trace_child.py.  A span's self time is its duration minus the durations
of its child spans.
"""

from __future__ import annotations

from collections import defaultdict

from trace_child import SPANS

__all__ = ["SPAN_NAMES", "COUNTERS", "self_times", "check_accounted", "op_layers",
           "per_layer_metrics"]

SPAN_NAMES = ("cli.main",
              *(f"{module}.{name}" for module, names in SPANS.items() for name in names))

# See check_accounted.
UNACCOUNTED_FACTOR = 2.0
UNACCOUNTED_SLACK_S = 0.25

# Counters taken at the span boundaries and rates derived by the runner:
# name -> (unit, better)
COUNTERS = {
    "optimizer.gr_fallbacks": ("count", "lower"),
    "optimizer.gr_exact_ratio": ("ratio", "higher"),
    "optimizer.dp_capacity_sum": ("count", "lower"),
    "coefficients.entries_built": ("count", "lower"),
    "simulation.draws": ("count", "higher"),
    "simulation.draws_per_s": ("1/s", "higher"),
    "simulation.bytes_computed": ("B", "lower"),
    "lemma.ratios_checked": ("count", "higher"),
    "simulation.replicates_per_s": ("1/s", "higher"),
    "trace.startup_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def self_times(spans: list) -> list[int]:
    """Self time of every span, in the spans' clock units.  The wrapped
    calls run synchronously, so children nest inside their parent and
    never overlap."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_accounted(wall_s: float, root_s: float, startup_s: float) -> None:
    """Raise ValueError if more of a traced op's wall time lies outside
    its root span than start-up explains.

    Outside cli.main a traced child only starts the interpreter, imports
    and wraps the package and writes its spans; `startup_s` is that part
    for the cheapest command, measured in the same run.  Allowing for
    host contention, the op may take UNACCOUNTED_FACTOR times as long
    plus UNACCOUNTED_SLACK_S outside its spans; more means the CLI did
    work the spans cannot see.
    """
    outside = wall_s - root_s
    limit = UNACCOUNTED_FACTOR * startup_s + UNACCOUNTED_SLACK_S
    if outside > limit:
        raise ValueError(f"{outside:.3f} s of the op's {wall_s:.3f} s lie outside its spans "
                         f"(limit {limit:.3f} s)")


def op_layers(spans: list) -> dict:
    """Per-layer totals for one traced op (seconds, calls, raw counts).

    Raises ValueError unless cli.main is the only root span.
    """
    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    if len(roots) != 1 or spans[roots[0]][0] != "cli.main":
        raise ValueError("a traced op must have exactly one root span, cli.main")
    root = spans[roots[0]]
    out: dict = {"self_ns": defaultdict(int), "calls": defaultdict(int),
                 "root_ns": root[2] - root[1]}
    counts = defaultdict(int)
    for (name, _, _, parent, meta), own in zip(spans, selfs):
        out["self_ns"][name] += own
        out["calls"][name] += 1
        if name == "optimizer.solve_dp":
            counts["dp_capacity"] += meta
            if parent >= 0 and spans[parent][0] == "optimizer.solve_group_relaxation":
                counts["gr_fallbacks"] += 1
        elif name in ("coefficients.exponential_table", "coefficients.load_table"):
            counts["entries"] += meta
        elif name == "simulation.monte_carlo":
            n, reps, parts = meta
            counts["draws"] += n * reps
            # float64 arrays the reduction materialises: u and x (n per
            # replicate), per-part max, min, range and weighted range
            # (4 per part) and the estimate itself
            counts["bytes"] += 8 * reps * (2 * n + 4 * parts + 1)
        elif name == "lemma.verify_lemma":
            counts["ratios"] += meta - 1
    out["counts"] = counts
    return out


def per_layer_metrics(ops: list[dict], sessions: int, extras: dict) -> dict:
    """Per-session per-layer metrics from the op_layers of every traced
    op, plus the extras measured by the runner (in seconds or 1/s)."""
    self_ns: dict = defaultdict(int)
    calls: dict = defaultdict(int)
    counts: dict = defaultdict(int)
    for op in ops:
        for name, v in op["self_ns"].items():
            self_ns[name] += v
        for name, v in op["calls"].items():
            calls[name] += v
        for name, v in op["counts"].items():
            counts[name] += v
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (self_ns[name] / 1e9 / sessions, "s")
        metrics[f"{name}.calls"] = (calls[name] / sessions, "count")
    gr_calls = calls["optimizer.solve_group_relaxation"]
    mc_self_s = self_ns["simulation.monte_carlo"] / 1e9
    values = {
        "optimizer.gr_fallbacks": counts["gr_fallbacks"] / sessions,
        "optimizer.gr_exact_ratio": (gr_calls - counts["gr_fallbacks"]) / gr_calls if gr_calls else 0.0,
        "optimizer.dp_capacity_sum": counts["dp_capacity"] / sessions,
        "coefficients.entries_built": counts["entries"] / sessions,
        "simulation.draws": counts["draws"] / sessions,
        "simulation.draws_per_s": counts["draws"] / mc_self_s if mc_self_s else 0.0,
        "simulation.bytes_computed": counts["bytes"] / sessions,
        "lemma.ratios_checked": counts["ratios"] / sessions,
        **extras,
    }
    for name, value in values.items():
        metrics[name] = (value, COUNTERS[name][0])
    return metrics
