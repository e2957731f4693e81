"""Tests of the benchmark itself: seeded generation, span arithmetic,
host pacing, the child launcher and the output oracle.  They never start
the CLI."""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from oracle import (
    FROZEN_C,
    Oracle,
    OracleError,
    admissible_mod,
    brute_force_optimum,
    check_calibration,
    closed_objective,
    harmonic_constants,
)
import run
from run import Launcher, _tail, paced
from tracing import UNACCOUNTED_SLACK_S, check_accounted, op_layers, self_times
from workloads import WORKLOADS, session

SCHEMA = Path(__file__).resolve().parent.parent / "src" / "grouprange" / "schema" / "output.schema.json"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sessions_are_deterministic_in_the_seed(workload):
    def ops(seed):
        return [(op.argv, op.files) for op in session(workload, seed)]

    assert ops(7) == ops(7)
    assert ops(7) != ops(8)
    assert len(ops(7)) == len(ops(8))  # same shape for every seed


def test_self_times_on_a_synthetic_tree():
    spans = [
        ["cli.main", 0, 100, -1, None],
        ["optimizer.solve_group_relaxation", 10, 40, 0, None],
        ["optimizer.solve_dp", 20, 30, 1, 6],
        ["estimator.make_plan", 50, 90, 0, None],
    ]
    assert self_times(spans) == [30, 20, 10, 40]
    layers = op_layers(spans)
    assert layers["root_ns"] == 100
    assert sum(layers["self_ns"].values()) == 100
    assert layers["counts"]["gr_fallbacks"] == 1
    assert layers["counts"]["dp_capacity"] == 6


def test_a_trace_needs_one_root_named_cli_main():
    with pytest.raises(ValueError):
        op_layers([["cli.main", 0, 100, -1, None], ["a", 100, 110, -1, None]])
    with pytest.raises(ValueError):
        op_layers([["a", 0, 100, -1, None]])


def test_wall_time_outside_the_spans_is_bounded_by_start_up():
    check_accounted(wall_s=1.3, root_s=1.0, startup_s=0.2)
    with pytest.raises(ValueError):  # 0.5 s of work the spans do not see
        check_accounted(wall_s=1.5 + UNACCOUNTED_SLACK_S, root_s=1.0, startup_s=0.2)


def test_paced_time_divides_by_the_mean_pace_around_the_op():
    assert paced(3.0, 1.0, 1.0) == pytest.approx(3.0)
    # twice as slow before and after: half the wall time was the host's
    assert paced(3.0, 2.0, 2.0) == pytest.approx(1.5)
    assert paced(3.0, 1.0, 3.0) == pytest.approx(1.5)


def test_launcher_reports_exit_code_output_and_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    env = dict(os.environ)
    with Launcher() as launcher:
        done = launcher.run([sys.executable, "-c", "import sys; print('out'); sys.exit(3)"], env, 10)
        hung = launcher.run([sys.executable, "-c", "import time; time.sleep(30)"], env, 0.5)
    assert (done["returncode"], done["stdout"], done["timed_out"]) == (3, "out\n", False)
    assert hung["timed_out"] and hung["returncode"] == -9 and hung["wall_s"] < 5
    assert launcher.proc.returncode == 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert _tail([float(i) for i in range(1, 29)]) == (18.0, 64, 10)
    assert _tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)


def test_independent_counts_and_optima():
    # partitions of n into parts >= 2, n = 0..10
    assert list(admissible_mod(10, 2147483647)) == [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12]
    for j, c in FROZEN_C.items():
        d, k = harmonic_constants(j)
        assert d * d / k == c
    table = {j: harmonic_constants(j) for j in range(2, 17)}
    for n in range(2, 17):
        assert brute_force_optimum(n, table) == closed_objective(n)


def _rational(x: Fraction) -> dict:
    return {"exact": str(x), "float": float(x)}


def _optimal_stdout(parts, objective=None) -> str:
    d = {3: Fraction(3, 2), 4: Fraction(11, 6), 5: Fraction(25, 12)}
    k = {3: Fraction(5, 4), 4: Fraction(49, 36), 5: Fraction(205, 144)}
    freq = {p: parts.count(p) for p in set(parts)}
    total = sum(d[p] ** 2 / k[p] for p in parts) if objective is None else objective
    payload = {
        "n": 22, "table": "exponential", "cross_checked": True,
        "results": [{
            "method": "group_relaxation",
            "partition": {"n": sum(parts), "parts": parts,
                          "frequencies": {str(p): m for p, m in freq.items()}},
            "objective": _rational(total),
            "variance_factor": _rational(1 / total),
            "weights": [{"part": p, "weight": _rational(d[p] / k[p] / total)}
                        for p in sorted(freq, reverse=True)],
        }],
    }
    return json.dumps({"command": "optimal", "format": "json", "payload": payload})


OPTIMAL_22 = dict(kind="optimal", format="json", n=22, method="gr")


def test_oracle_accepts_the_paper_answer():
    Oracle(SCHEMA).check(OPTIMAL_22, 0, _optimal_stdout([5, 5, 4, 4, 4]))


def test_oracle_rejects_a_corrupted_partition():
    with pytest.raises(OracleError):
        Oracle(SCHEMA).check(OPTIMAL_22, 0, _optimal_stdout([5, 5, 4, 4, 4, 4]))
    with pytest.raises(OracleError):  # sums to n but is not optimal
        Oracle(SCHEMA).check(OPTIMAL_22, 0, _optimal_stdout([5, 5, 3, 3, 3, 3]))


def test_oracle_rejects_a_wrong_objective():
    with pytest.raises(OracleError):
        Oracle(SCHEMA).check(OPTIMAL_22, 0, _optimal_stdout([5, 5, 4, 4, 4], Fraction(27134, 2009)))


def test_oracle_rejects_a_nonzero_exit():
    with pytest.raises(OracleError):
        Oracle(SCHEMA).check(OPTIMAL_22, 4, _optimal_stdout([5, 5, 4, 4, 4]))


def test_calibration_rejects_a_miscalibrated_mean():
    vf, reps, theta = Fraction(2009, 27133), 100_000, 1.5
    stderr = math.sqrt(float(vf) * theta**2 / reps)
    variance = float(vf) * theta**2
    check_calibration(theta + 2 * stderr, variance, theta, vf, reps)
    with pytest.raises(OracleError):
        check_calibration(theta + 6 * stderr, variance, theta, vf, reps)
    with pytest.raises(OracleError):
        check_calibration(theta, variance * 1.2, theta, vf, reps)
