"""Repeat benchmark runs over several seeds and summarise their spread.

Usage (from the repository root):

    python3 perfbench/prove.py --runs 10 [--workload NAME ...] [--out FILE]

For each workload, runs perfbench/run.py once per seed 1..runs with the
run_seconds of BENCHMARK.json, and reports per end-to-end metric the
median, the quartiles and the spread (Q3 - Q1) / median, as
statistics.quantiles(values, n=4) gives them, next to the metric's
bound.  --out writes the summary as JSON.  Exits 1 if any run failed
or any spread exceeds its metric's bound.  The spread of setup_s is
reported but not gated: set-up is a fraction of a second, measured in a
few seconds at the start of each run, so host contention moves it more
than the longer metrics, and a change is judged by its median alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """(result line, provenance line) of one run.py invocation."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[0])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary: dict = {}
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            result, prov = one_run(workload, seed, spec["run_seconds"])
            steady &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            rows[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name], "values": vals}
            verdict = "not gated" if name == "setup_s" else "ok" if spread <= bounds[name] else "WIDE"
            steady &= verdict != "WIDE"
            print(f"{workload:10} {name:12} median {statistics.median(vals):10.4f}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}  {verdict}  "
                  f"values {' '.join(f'{v:.4g}' for v in vals)}", flush=True)
        summary[workload] = {"provenance": prov["provenance"], "runs": args.runs,
                             "seeds": list(range(1, args.runs + 1)), "end_to_end": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
