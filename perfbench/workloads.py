"""Seeded workload generators.

A workload run repeats one session: a fixed-shape list of CLI ops whose
inputs come from (workload, seed).
Sizes are stratified: each op draws its size from its own narrow
stratum of the workload's range, so every seed exercises the same cost
profile with different inputs, and session wall times are comparable
across seeds.

Why each workload exists:

exact     the exact layers, cold in every process.  Its ops are the
          user's main query, optimal n (the default method's DP
          cross-check, optimizer.solve_dp, dominates; custom tables
          exercise load_table and the group-relaxation fallback; closed
          ops bypass the DP and isolate coefficients.exponential_table),
          and the paper's reproduction session, verify, table 2 N and
          count N --asymptotic (ascending sweeps reuse the harmonic and
          DP caches, so the per-row residue-graph rebuild, lemma and
          partitions dominate).  No op simulates.
simulate  Monte Carlo at small n over many 65536-row blocks that fit in
          the last-level cache (Philox draws, log1p and per-part ranges
          dominate) and at n in the hundreds, some with many small
          parts, where a block no longer fits and peak memory and the
          per-part range loop dominate.  The exact layers are negligible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

__all__ = ["WORKLOADS", "WORK_DIR", "Op", "session", "COUNT_MAX", "NOMINAL_SESSION_S"]

WORKLOADS = ("exact", "simulate")
FORMATS = ("text", "json", "csv")
BLOCK = 1 << 16

COUNT_MAX = 8_000  # largest n a count op uses
WORK_DIR = ".perfbench_work"  # scratch files, relative to the checkout root


@dataclass
class Op:
    """One CLI invocation: its arguments, what the oracle expects, and
    any input file (relative path -> bytes) to write before it runs."""

    argv: list[str]
    expect: dict
    files: dict[str, bytes] = field(default_factory=dict)


def _stratum(rng: random.Random, lo: float, hi: float, k: int, i: int,
             jitter: float = 0.1) -> int:
    """An integer near the middle of stratum i of k log-spaced strata of
    [lo, hi]; jitter is the share of the stratum width the seed spans."""
    u = (i + 0.5 + jitter * (rng.random() - 0.5)) / k
    return round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


def _seed64(rng: random.Random) -> int:
    return int(rng.random() * 2**32) << 32 | int(rng.random() * 2**32)


def _theta(rng: random.Random) -> float:
    return round(math.exp(math.log(0.5) + rng.random() * math.log(4)), 6)


def _custom_table(rng: random.Random, kind: str) -> tuple[int, list[tuple[int, str, str]]]:
    """(n, rows) for a seeded custom table; rows are (j, d, k_sq) strings.

    random:   d and k_sq drawn independently, as exact fractions or
              decimal literals.
    ties:     many parts share the best efficiency per observation
              (C_j = j/2), so many partitions share the optimum.
    fallback: part b has the best C_j / j, part b + 1 a tiny penalty and
              every other part a large one, and n = q b + r with q < r,
              so the residue path (r parts of b + 1) overshoots n and the
              group relaxation must fall back to the DP.
    """
    if kind == "fallback":
        b = 6 + int(rng.random() * 7)
        q = 1 + int(rng.random() * 2)
        r = q + 1 + int(rng.random() * (b - q - 1))
        n = q * b + r
        eps = Fraction(1 + int(rng.random() * 4), 100)
        big = Fraction(50 + int(rng.random() * 100), 100)
        c = {j: j - big for j in range(2, n + 1)}
        c[b], c[b + 1] = Fraction(b), b + 1 - eps
        return n, [(j, str(v), str(v)) for j, v in c.items()]  # C = d**2 / k_sq = v
    n = 16 + int(rng.random() * 15)
    rows = []
    for j in range(2, n + 1 + int(rng.random() * 6)):
        if kind == "ties":
            d, k = str(j), str(2 * j if rng.random() < 0.6 else 2 * j + 1)
        else:
            d_num, k_num = 1 + int(rng.random() * 8 * j), 4 + int(rng.random() * 28)
            if rng.random() < 0.5:
                d, k = f"{d_num}/8", f"{k_num}/16"
            else:
                d, k = f"{d_num / 8:.3f}", f"{k_num / 16:.4f}"
        rows.append((j, d, k))
    return n, rows


def _small_parts(rng: random.Random, n: int) -> list[int]:
    parts = []
    remaining = n
    while remaining > 5:
        part = 2 + int(rng.random() * 4)
        if remaining - part != 1:
            parts.append(part)
            remaining -= part
    parts.append(remaining)
    rng.shuffle(parts)
    return parts


def _simulate(rng: random.Random, n: int, reps: int, fmt: str, partition=None) -> Op:
    theta, seed = _theta(rng), _seed64(rng)
    argv = ["simulate", str(n), "--reps", str(reps), "--seed", str(seed),
            "--theta", repr(theta), "--format", fmt]
    if partition is not None:
        argv += ["--partition", ",".join(map(str, partition))]
    return Op(argv, dict(kind="simulate", format=fmt, n=n, reps=reps, seed=seed,
                         theta=theta, partition=partition))


def _optimal_session(rng: random.Random, tag: str) -> list[Op]:
    ops = []
    for i in range(10):  # default method, n log-uniform over 2..1000
        n = _stratum(rng, 2, 1000, 10, i)
        ops.append(Op(["optimal", str(n), "--format", "json"],
                      dict(kind="optimal", format="json", n=n, method="gr")))
    for i in range(2):  # closed form in the low thousands
        n = _stratum(rng, 2000, 3000, 2, i)
        ops.append(Op(["optimal", str(n), "--method", "closed", "--format", "json"],
                      dict(kind="optimal", format="json", n=n, method="closed")))
    for kind in ("random", "ties", "fallback"):  # custom tables, small n
        n, rows = _custom_table(rng, kind)
        label = f"{tag}-{kind}.csv"
        path = f"{WORK_DIR}/tables/{label}"
        text = "j,d,k_sq\n" + "".join(f"{j},{d},{k}\n" for j, d, k in rows)
        ops.append(Op(["optimal", str(n), "--table", path, "--format", "json"],
                      dict(kind="optimal", format="json", n=n, method="gr",
                           table=rows, label=label),
                      {path: text.encode()}))
    rng.shuffle(ops)
    return ops


def _reproduce_session(rng: random.Random) -> list[Op]:
    ops = []
    for i, fmt in enumerate(("csv", "json")):
        lemma_max = _stratum(rng, 300, 500, 2, i)
        agree_max = _stratum(rng, 150, 250, 2, i)
        ops.append(Op(["verify", "--lemma-max", str(lemma_max), "--agree-max", str(agree_max),
                       "--format", fmt],
                      dict(kind="verify", format=fmt, lemma_max=lemma_max, agree_max=agree_max)))
    for i, fmt in enumerate(("text", "json", "csv")):
        n_to = _stratum(rng, 120, 330, 3, i)
        ops.append(Op(["table", "2", str(n_to), "--format", fmt],
                      dict(kind="table", format=fmt, n_from=2, n_to=n_to)))
    for i, fmt in enumerate(("csv", "text", "json")):
        n = _stratum(rng, 2000, COUNT_MAX, 3, i)
        ops.append(Op(["count", str(n), "--asymptotic", "--format", fmt],
                      dict(kind="count", format=fmt, n=n, asymptotic=True)))
    return ops


def _mc_narrow_session(rng: random.Random) -> list[Op]:
    ops = []
    for i in range(6):
        n = _stratum(rng, 8, 40, 6, i)
        blocks = max(2, round(4e6 / (BLOCK * n)))  # about 4 million draws per op
        reps = blocks * BLOCK - int(rng.random() * 4096)
        ops.append(_simulate(rng, n, reps, FORMATS[i % 3]))
    return ops


def _mc_wide_session(rng: random.Random) -> list[Op]:
    # Even a half block (u, x and the log1p temporaries) is several times
    # the last-level cache at these n; the top op's full block sets the
    # peak memory.  Every other op takes many small parts.
    ops = []
    for i, share in enumerate((1.125, 0.5, 0.5, 1.0)):
        n = _stratum(rng, 200, 400, 4, i)
        reps = int(share * BLOCK) - int(rng.random() * 2048)
        partition = _small_parts(rng, n) if i % 2 == 0 else None
        ops.append(_simulate(rng, n, reps, FORMATS[i % 3], partition))
    return ops


# Wall time of one round (one session) on the reference machine
# (2 cores, Python 3.11, numpy 2.4).  A run makes seconds /
# NOMINAL_SESSION_S rounds, at least two, so the work in a run is fixed
# by --seconds alone.
NOMINAL_SESSION_S = {"exact": 12.5, "simulate": 11.5}


def session(workload: str, seed: int) -> list[Op]:
    """The ops of one session of a workload, generated from `seed`."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "exact":
        return _optimal_session(rng, f"s{seed}") + _reproduce_session(rng)
    if workload == "simulate":
        return _mc_narrow_session(rng) + _mc_wide_session(rng)
    raise ValueError(f"unknown workload {workload!r}")
