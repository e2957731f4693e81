"""grouprange benchmark: drives the CLI from outside and checks every output.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Closed loop with one client: one `python -m grouprange.cli` child at a
time, run from src/ of this checkout in a pinned environment.  A run
repeats one seeded session of ops for seconds / NOMINAL_SESSION_S
rounds (at least two); each op's output goes through the oracle, and a
nonzero exit, a timeout or a mismatch counts as a failed op.  The
runner and its children share one CPU, and the timed end-to-end metrics
are paced: each child's wall time is divided by the host's pace, a
fixed pair of loops timed in the runner just before and after the child.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each op
twice, untraced and then through trace_child.py, and prints per-layer
self times, calls and counters per session, plus the tracing overhead.
The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the lines before it give provenance and sample counts.  The
exit code is 1 when any op failed, 2 when the checkout has no program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oracle import Oracle, OracleError  # noqa: E402
from tracing import check_accounted, op_layers, per_layer_metrics  # noqa: E402
from workloads import COUNT_MAX, NOMINAL_SESSION_S, WORK_DIR, WORKLOADS, Op, session  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / WORK_DIR
SCHEMA = ROOT / "src" / "grouprange" / "schema" / "output.schema.json"

SETUP_BLOCKS, SETUP_BLOCK = 5, 4  # set-up probes per run: blocks of probes
SETTLE_S = 0.3  # pause before each block of set-up probes
TRACE_PROBES = 3  # traced probes per run, the start-up reference of check_accounted
PROBE = Op(["count", "0", "--format", "json"],
           dict(kind="count", format="json", n=0, asymptotic=False))
OP_TIMEOUT_S = 60.0
# Host pace: just before and just after every child the runner times two
# fixed loops (each the fastest of PACE_REPEATS), on the CPU the child
# runs on.  A loop's pace is its time over its usual time on the
# reference machine; a child's paced time is its wall time over the mean
# pace before and after it, taken from the numpy loop for simulate ops
# and from the interpreter loop for every other op.
INTERPRETER_NOMINAL_S = 0.0078
NUMPY_NOMINAL_S = 0.0112
PACE_REPEATS = 3
RUN_DEADLINE_S = 165.0  # start no op after this; every run ends within 180 s

# The environment variables that change what or how the CLI computes.
_DROP_ENV = ("GROUPRANGE_FORMAT", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX",
             "PYTHONSTARTUP", "PYTHONOPTIMIZE", "PYTHONDEVMODE", "PYTHONTRACEMALLOC",
             "PYTHONPROFILEIMPORTTIME", "PYTHONWARNINGS", "PYTHONHOME")
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _DROP_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for name in _THREAD_ENV:
        env[name] = "1"
    return env


def interpreter_loop() -> float:
    """Wall time of a fixed interpreter-bound loop: Fraction arithmetic
    and dict updates, the kind of work the exact layers do."""
    start = time.perf_counter()
    total = Fraction(0)
    for j in range(1, 700):
        total += Fraction(1, j * j + 1)
    counts: dict[int, int] = {}
    for i in range(20_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


_PACE_GEN = numpy.random.Generator(numpy.random.Philox(0))


def numpy_loop() -> float:
    """Wall time of a fixed numpy loop: Philox draws and log1p over half
    a million doubles, the kind of work the simulation layer does."""
    start = time.perf_counter()
    float(numpy.log1p(-_PACE_GEN.random(1 << 19)).sum())
    return time.perf_counter() - start


def host_pace() -> tuple[float, float]:
    """(interpreter pace, numpy pace); 1 is the reference machine's usual pace."""
    numpy_s = min(numpy_loop() for _ in range(PACE_REPEATS))
    interpreter_s = min(interpreter_loop() for _ in range(PACE_REPEATS))
    return interpreter_s / INTERPRETER_NOMINAL_S, numpy_s / NUMPY_NOMINAL_S


def paced(wall_s: float, pace_before: float, pace_after: float) -> float:
    """`wall_s` at the reference machine's usual pace."""
    return wall_s / ((pace_before + pace_after) / 2)


# Children are spawned by a small launcher process, not by the runner:
# exec starts a child's ru_maxrss from the high-water RSS of the process
# that spawned it, and the runner's (numpy, the oracle) would otherwise
# be a floor under peak_rss_mb.  The launcher runs without site packages,
# takes one JSON request per line and answers each with one JSON line.
_LAUNCHER = """
import json, os, signal, sys, time
pid = 0
timed_out = False

def kill(signum, frame):
    global timed_out
    timed_out = True
    os.kill(pid, signal.SIGKILL)  # not reaped yet, so never a reused pid

signal.signal(signal.SIGALRM, kill)
for line in sys.stdin:
    req = json.loads(line)
    out = os.open(req["out"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    err = os.open(req["err"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    timed_out = False
    start = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=[
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)])
    signal.setitimer(signal.ITIMER_REAL, req["timeout"])
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    _, status, usage = os.wait4(pid, 0)
    os.close(out)
    os.close(err)
    hwm = next(int(x.split()[1]) for x in open("/proc/self/status") if x.startswith("VmHWM:"))
    print(json.dumps({"wall_s": wall, "rss_kb": usage.ru_maxrss, "status": status,
                      "timed_out": timed_out and os.WIFSIGNALED(status), "hwm_kb": hwm}),
          flush=True)
"""


class Launcher:
    """Runs children through the launcher process; as a context manager
    it starts the launcher and stops it on the way out."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", "-c", _LAUNCHER], cwd=ROOT,
                                     text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.hwm_mb = 0.0
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:  # a running child is killed by its own timeout first
            self.proc.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def run(self, cmd: list[str], env: dict, timeout: float) -> dict:
        """Run one child to completion: wall time, peak RSS, exit code, output."""
        out, err = WORK / f"out-{os.getpid()}", WORK / f"err-{os.getpid()}"
        request = {"argv": cmd, "env": env, "out": str(out), "err": str(err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.hwm_mb = max(self.hwm_mb, reply["hwm_kb"] / 1024)
        result = {
            "wall_s": reply["wall_s"],
            "rss_mb": reply["rss_kb"] / 1024,
            "returncode": os.waitstatus_to_exitcode(reply["status"]),
            "timed_out": reply["timed_out"],
            "stdout": out.read_bytes().decode("utf-8", "replace"),
            "stderr": err.read_bytes().decode("utf-8", "replace"),
        }
        out.unlink()
        err.unlink()
        return result


class Runner:
    """Runs and checks ops, keeping the failure accounting of one run.
    Each op's result carries its paced time: its wall time at the
    reference machine's pace, from the host pace just before and after."""

    def __init__(self, workload: str, started: float, launcher: Launcher) -> None:
        self.env = child_env()
        self.oracle = Oracle(SCHEMA, COUNT_MAX if workload == "exact" else 0)
        self.started = started
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.failures: list[str] = []
        self.launcher = launcher
        self.pace = host_pace()
        self.paces = [self.pace]

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def run(self, op: Op, spans_path: Path | None = None) -> dict:
        for rel, data in op.files.items():
            path = ROOT / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        if spans_path is None:
            cmd = [sys.executable, "-m", "grouprange.cli", *op.argv]
        else:
            cmd = [sys.executable, str(Path(__file__).resolve().parent / "trace_child.py"),
                   str(spans_path), "--", *op.argv]
        result = self.launcher.run(cmd, self.env, max(1.0, min(OP_TIMEOUT_S, self.remaining() + 10)))
        pace = host_pace()
        k = 1 if op.expect["kind"] == "simulate" else 0
        result["paced_s"] = paced(result["wall_s"], self.pace[k], pace[k])
        self.pace = pace
        self.paces.append(pace)
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, result["rss_mb"])
        try:
            if result["timed_out"]:
                raise OracleError("timed out")
            self.oracle.check(op.expect, result["returncode"], result["stdout"])
            result["ok"] = True
        # a malformed output surfaces as a missing key, a short line or a bad number
        except (OracleError, KeyError, IndexError, ValueError, TypeError) as exc:
            self.failed += 1
            result["ok"] = False
            detail = result["stderr"].strip().splitlines()[-1:] or [""]
            self.failures.append(f"{' '.join(op.argv)}: {exc!r} {detail[0]}")
        return result


def _tail(samples: list[float]) -> tuple[float, int, int]:
    """(value, percentile, samples beyond) at the highest integer percentile
    with at least ten samples beyond it; the maximum when there are fewer
    than eleven samples."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = 100 * (n - 10) // n if n > 10 else 100
    rank = max(1, math.ceil(pct * n / 100))
    return ordered[rank - 1], pct, n - rank


def _rounds(workload: str, seconds: int, traced: bool) -> int:
    per = NOMINAL_SESSION_S[workload] * (2 if traced else 1)
    return max(1 if traced else 2, int(seconds // per))


def _traced(runner: Runner, op: Op, spans_path: Path,
            startup_ref: float | None = None) -> tuple[float, dict | None]:
    """Run `op` through trace_child.py: (wall time, its op_layers), or
    (wall time, None) for a failed op, which is also an op whose spans
    are missing or, given `startup_ref`, leave more of its wall time
    unaccounted than check_accounted allows."""
    spans_path.unlink(missing_ok=True)  # a killed child leaves no spans
    result = runner.run(op, spans_path)
    if not result["ok"]:
        return result["wall_s"], None
    try:
        layer = op_layers(json.loads(spans_path.read_text()))
        if startup_ref is not None:
            check_accounted(result["wall_s"], layer["root_ns"] / 1e9, startup_ref)
    except (OSError, ValueError) as exc:
        runner.failed += 1
        runner.failures.append(f"trace of {' '.join(op.argv)}: {exc!r}")
        return result["wall_s"], None
    return result["wall_s"], layer


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 launcher: Launcher) -> tuple[dict, dict, Runner]:
    """One benchmark run; returns (metrics, details, runner).

    The run repeats one seeded session for several rounds.  The timed
    metrics use paced times (Runner.run), which follow the host's speed
    out of the wall times; each op counts its median paced time over the
    rounds.  The set-up probes run before any op, so on every workload
    they meet the same state, free of any op's after-effects (a simulate
    child leaves about 0.6 GB to reclaim); each block of probes counts
    its fastest paced time, and setup_s is the median over blocks.
    """
    started = time.perf_counter()
    runner = Runner(workload, started, launcher)
    runner.run(PROBE)  # warm-up: byte-compiles the package outside any timing
    ops = session(workload, seed)
    best = [math.inf] * len(ops)
    best_traced = [math.inf] * len(ops)
    paced_s: list[list[float]] = [[] for _ in ops]
    samples: list[float] = []
    setup: list[float] = []
    layers: list[dict] = []
    startup_s = 0.0
    spans_path = WORK / f"spans-{os.getpid()}.json"
    planned = _rounds(workload, seconds, trace)
    if trace:
        startups = []
        for _ in range(TRACE_PROBES):
            wall, layer = _traced(runner, PROBE, spans_path)
            if layer is not None:
                startups.append(wall - layer["root_ns"] / 1e9)
        if not startups:
            planned = 0  # failed: no reference for check_accounted
        else:
            startup_ref = statistics.median(startups)
    else:
        for _ in range(SETUP_BLOCKS):
            time.sleep(SETTLE_S)
            setup.append(min(runner.run(PROBE)["paced_s"] for _ in range(SETUP_BLOCK)))
    rounds = 0
    for _ in range(planned):
        if runner.remaining() <= 0:
            break
        for i, op in enumerate(ops):
            result = runner.run(op)
            wall = result["wall_s"]
            best[i] = min(best[i], wall)
            paced_s[i].append(result["paced_s"])
            samples.append(wall)
            if trace:  # right after the untraced op, so both meet the same contention
                wall, layer = _traced(runner, op, spans_path, startup_ref)
                best_traced[i] = min(best_traced[i], wall)
                if layer is not None:
                    layers.append(layer)
                    startup_s += wall - layer["root_ns"] / 1e9
        rounds += 1
    spans_path.unlink(missing_ok=True)

    details = {"rounds": rounds, "ops_per_round": len(ops), "setup_probes": len(setup) * SETUP_BLOCK,
               "setup_blocks_s": setup, "error_rate": runner.failed / runner.attempted}
    if rounds == 0:
        return {}, details, runner
    reps = sum(op.expect["reps"] for op in ops if op.expect["kind"] == "simulate")
    sim_wall = sum(b for op, b in zip(ops, best) if op.expect["kind"] == "simulate")
    if reps:
        details["replicates_per_s"] = reps / sim_wall
    tail, pct, beyond = _tail(samples)
    details.update(op_tail_s=tail, op_tail_percentile=pct, op_tail_samples=len(samples),
                   op_tail_samples_beyond=beyond)
    if trace:
        extras = {
            "trace.overhead_s": sum(best_traced) - sum(best),
            "trace.startup_s": startup_s / rounds,
            "simulation.replicates_per_s": reps / sim_wall if reps else 0.0,
        }
        return per_layer_metrics(layers, rounds, extras), details, runner
    details["op_p50_s"] = statistics.median(best)
    details["wall_raw_s"] = sum(best)
    details["host_pace"] = [statistics.median(p) for p in zip(*runner.paces)]
    # the floor under peak_rss_mb: a child's ru_maxrss starts from this
    details["launcher_hwm_mb"] = launcher.hwm_mb
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(statistics.median(p) for p in paced_s), "s"),
        "peak_rss_mb": (runner.peak_rss_mb, "MB"),
    }
    return metrics, details, runner


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def provenance(workload: str, seed: int, seconds: int, cpus: list[int]) -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(str(index / "size")).strip()
    mem = next((line.split()[1] for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal:")), None)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or None
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "nproc": len(cpus), "pinned_cpu": cpus[0], "cpu_model": model,
        "l2": caches.get("L2"), "l3": caches.get("L3"),
        "ram_mb": int(mem) // 1024 if mem else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit,
    }


# Reported beside the metrics, not gated: per-op medians and tails rest
# on too few ops per run to be steady, and error_rate is 0 when correct.
_REPORTED = (("op_p50_s", "s"), ("replicates_per_s", "1/s"), ("error_rate", "ratio"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "grouprange" / "cli.py").is_file() or not SCHEMA.is_file():
        print(f"error: no grouprange sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    # One CPU for the runner, the launcher and every child: the pace
    # loops then run where the children run.
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict = {}
    for workload in workloads:
        with Launcher() as launcher:
            result, details, runner = run_workload(workload, args.seed, args.seconds,
                                                   bool(args.trace), launcher)
        attempted += runner.attempted
        failed += runner.failed
        for line in runner.failures:
            print(f"FAILED {workload}: {line}", file=sys.stderr)
        print(json.dumps({"provenance": provenance(workload, args.seed, args.seconds, cpus),
                          "details": details}))
        rows = [(name, value, unit) for name, (value, unit) in result.items()]
        if "op_tail_s" in details:
            rows.append((f"op_tail_s (p{details['op_tail_percentile']})", details["op_tail_s"], "s"))
        rows += [(name, details[name], unit) for name, unit in _REPORTED if name in details]
        for name, value, unit in rows:
            print(f"{workload:10} {name:40} {value:>16.6g} {unit}")
        if not result:
            failed += 1
        if args.workload == "all":
            result = {f"{workload}.{name}": v for name, v in result.items()}
        metrics.update(result)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
