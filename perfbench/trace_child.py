"""Run one grouprange CLI invocation with spans around each layer.

Usage: python trace_child.py SPANS_OUT -- CLI_ARGS...

Wraps the public functions of every module under src/grouprange/,
including the names that other modules (cli, optimizer) bind by
import, then calls grouprange.cli.main(CLI_ARGS) inside a root span
named cli.main.  Spans are held in memory and written to SPANS_OUT as
JSON when the call returns: one [name, start_ns, end_ns, parent, meta]
list per call, parent being the index of the enclosing span or -1.
The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> public functions that get a span.  meta(args, result) keeps
# the size a counter needs, e.g. n for solve_dp.
SPANS = {
    "exactmath": {"generalized_harmonic": None},
    "coefficients": {
        "exponential_table": lambda a, r: len(r.entries),
        "load_table": lambda a, r: len(r.entries),
    },
    "optimizer": {
        "solve_dp": lambda a, r: a[0],
        "solve_group_relaxation": None,
        "build_residue_graph": None,
        "shortest_paths": None,
        "partition_objective": None,
        "rule_of_fours": None,
    },
    "estimator": {"make_plan": None},
    "simulation": {
        "monte_carlo": lambda a, r: [r.n, r.replicates, len(r.plan_partition.parts)],
        "replicate_stream": None,
    },
    "lemma": {"verify_lemma": lambda a, r: a[0]},
    "partitions": {"count_admissible": None},
}


def instrument(spans: list) -> object:
    """Install the wrappers; return the wrapped grouprange.cli.main."""
    stack: list[int] = []
    clock = time.perf_counter_ns

    def wrap(name, fn, meta):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, clock(), 0, stack[-1] if stack else -1, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if meta is not None:
                record[4] = meta(args, result)
            return result
        return wrapper

    modules = {short: importlib.import_module(f"grouprange.{short}")
               for short in (*SPANS, "cli")}
    for short, functions in SPANS.items():
        for fname, meta in functions.items():
            original = getattr(modules[short], fname)
            wrapped = wrap(f"{short}.{fname}", original, meta)
            for module in modules.values():
                for attr, value in vars(module).items():
                    if value is original:
                        setattr(module, attr, wrapped)
    return wrap("cli.main", modules["cli"].main, None)


def main() -> int:
    out_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: trace_child.py SPANS_OUT -- CLI_ARGS...")
    spans: list = []
    cli_main = instrument(spans)
    try:
        code = cli_main(sys.argv[3:])
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
