"""Output oracle for the grouprange benchmark.

Every check here is independent of the code path being timed: the
exponential optimum comes from the paper's closed form over frozen
constants, custom-table optima from a brute force over all admissible
partitions, partition counts from a modular coin-change recurrence,
and Monte-Carlo reports from calibration tolerances rather than
golden bits.  A check that fails raises OracleError.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

import numpy as np

__all__ = [
    "OracleError",
    "Oracle",
    "closed_form",
    "closed_objective",
    "brute_force_optimum",
    "admissible_mod",
    "check_calibration",
]

# The paper's constants for the exponential distribution:
# d_j = E[range]/sigma, k_j = Var(range)/sigma**2, C_j = d_j**2 / k_j.
FROZEN_D = {2: Fraction(1), 3: Fraction(3, 2), 4: Fraction(11, 6), 5: Fraction(25, 12)}
FROZEN_K = {2: Fraction(1), 3: Fraction(5, 4), 4: Fraction(49, 36), 5: Fraction(205, 144)}
FROZEN_C = {2: Fraction(1), 3: Fraction(9, 5), 4: Fraction(121, 49), 5: Fraction(125, 41)}

PEAK_RATIO = FROZEN_C[4] / 4
TAIL_START = 34  # first n with (1 + ln(n-1))**2 / (n-1) below the peak

CALIBRATION_Z = 5.0
# The estimate is a weighted sum of independent ranges, each a sum of
# independent exponentials, so its kurtosis is at most 9 and the sample
# variance has relative standard error at most sqrt(8 / R).
KURTOSIS_BOUND = 9.0

PRIMES = (2147483647, 2147483629)

_FLOAT_REL = 1e-9  # text output prints 10 significant digits


class OracleError(Exception):
    """An output did not match what the oracle expects."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleError(message)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ------------------------------------------------------------ exact math


def closed_form(n: int) -> dict[int, int]:
    """The paper's optimum for the exponential table, as part -> count."""
    _require(n >= 2, f"closed form needs n >= 2, got {n}")
    if n <= 5:
        return {n: 1}
    if n == 6:
        return {3: 2}
    q, r = divmod(n, 4)
    if r == 0:
        return {4: q}
    if r in (1, 2):
        return {j: m for j, m in ((4, q - r), (5, r)) if m}
    return {3: 1, 4: q}


def closed_objective(n: int) -> Fraction:
    return sum((FROZEN_C[j] * m for j, m in closed_form(n).items()), Fraction(0))


def harmonic_constants(j: int) -> tuple[Fraction, Fraction]:
    """(d_j, k_j) for j exponential draws, summed here from scratch."""
    d = sum((Fraction(1, i) for i in range(1, j)), Fraction(0))
    k = sum((Fraction(1, i * i) for i in range(1, j)), Fraction(0))
    return d, k


def frequencies(parts) -> dict[int, int]:
    freq: dict[int, int] = {}
    for p in parts:
        freq[p] = freq.get(p, 0) + 1
    return freq


def brute_force_optimum(n: int, table: dict[int, tuple[Fraction, Fraction]]) -> Fraction:
    """Maximum of sum C_j over every admissible partition of n."""
    c = {j: d * d / k for j, (d, k) in table.items() if j <= n}
    best: list[Fraction | None] = [None]

    def rec(remaining: int, cap: int, acc: Fraction) -> None:
        if remaining == 0:
            if best[0] is None or acc > best[0]:
                best[0] = acc
            return
        for part in range(min(cap, remaining), 1, -1):
            if remaining - part != 1:
                rec(remaining - part, part, acc + c[part])

    rec(n, n, Fraction(0))
    assert best[0] is not None
    return best[0]


def admissible_mod(n_max: int, prime: int) -> np.ndarray:
    """Partitions of 0..n_max into parts >= 2, modulo a prime < 2**31.

    Unbounded coin change, one coin size k at a time; a slice of
    length k only reads the previous slice, which is already final.
    """
    a = np.zeros(n_max + 1, dtype=np.int64)
    a[0] = 1
    for k in range(2, n_max + 1):
        for i in range(k, n_max + 1, k):
            j = min(i + k, n_max + 1)
            a[i:j] = (a[i:j] + a[i - k : j - k]) % prime
    return a


def asymptotic_admissible(n: int) -> float:
    return math.pi / (12 * math.sqrt(2) * n**1.5) * math.exp(math.pi * math.sqrt(2 * n / 3))


def check_calibration(
    mean: float, variance: float, theta: float, variance_factor: Fraction, reps: int
) -> None:
    """|mean - theta| <= z * stderr and the variance within z standard errors."""
    theory = float(variance_factor) * theta * theta
    stderr = math.sqrt(theory / reps)
    _require(
        abs(mean - theta) <= CALIBRATION_Z * stderr,
        f"mean {mean!r} is {abs(mean - theta) / stderr:.2f} standard errors from theta {theta!r}",
    )
    tolerance = CALIBRATION_Z * math.sqrt((KURTOSIS_BOUND - 1) / reps)
    _require(
        abs(variance / theory - 1) <= tolerance,
        f"variance {variance!r} differs from theory {theory!r} by more than {tolerance:.3%}",
    )


# ------------------------------------------------------------ parsing


def _rational(value) -> Fraction:
    """An {"exact", "float"} pair, checked for consistency."""
    exact = Fraction(value["exact"])
    _require(_close(float(exact), value["float"], 1e-12),
             f"float {value['float']!r} does not match exact {value['exact']}")
    return exact


def _parts(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _csv_rows(stdout: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(stdout)))


class Oracle:
    """Checks one op's stdout against the expectation its workload recorded."""

    def __init__(self, schema_path, count_max: int = 0) -> None:
        from jsonschema import Draft7Validator

        with open(schema_path, encoding="utf-8") as handle:
            self._validator = Draft7Validator(json.load(handle))
        self._count_max = count_max
        self._count_residues = [admissible_mod(count_max, p) for p in PRIMES] if count_max else []

    def check(self, expect: dict, returncode: int, stdout: str) -> None:
        _require(returncode == 0, f"exit code {returncode}")
        kind = expect["kind"]
        fmt = expect["format"]
        payload = self._envelope(kind, stdout) if fmt == "json" else None
        getattr(self, f"_check_{kind}")(expect, fmt, payload, stdout)

    def _envelope(self, command: str, stdout: str) -> dict:
        try:
            envelope = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise OracleError(f"output is not JSON: {exc}") from None
        errors = sorted(self._validator.iter_errors(envelope), key=str)
        _require(not errors, f"schema: {errors[0].message}" if errors else "")
        _require(envelope["command"] == command, f"command {envelope['command']!r}")
        return envelope["payload"]

    # -------------------------------------------------------- optimal

    def _check_optimal(self, expect, fmt, payload, stdout) -> None:
        _require(fmt == "json", "optimal ops are checked in JSON only")
        n = expect["n"]
        _require(payload["n"] == n, f"n {payload['n']} != {n}")
        table = expect.get("table")
        if table is None:
            _require(payload["table"] == "exponential", f"table {payload['table']!r}")
            consts = {j: (FROZEN_D[j], FROZEN_K[j]) for j in FROZEN_D}
            best = closed_objective(n)
            want_parts = closed_form(n)
        else:
            _require(payload["table"] == expect["label"], f"table {payload['table']!r}")
            consts = {int(j): (Fraction(d), Fraction(k)) for j, d, k in table}
            best = brute_force_optimum(n, consts)
            want_parts = None
        _require(expect["method"] != "gr" or payload.get("cross_checked") is True,
                 "default method did not report its DP cross-check")
        _require("agreement" not in payload, "solvers disagree")
        for result in payload["results"]:
            self._check_result(result, n, consts, best, want_parts)

    def _check_result(self, result, n, consts, best, want_parts) -> None:
        part = result["partition"]
        parts = tuple(part["parts"])
        freq = frequencies(parts)
        _require(part["n"] == n and sum(parts) == n, f"parts {parts} do not sum to {n}")
        _require(all(p >= 2 for p in parts), f"inadmissible part in {parts}")
        _require(list(parts) == sorted(parts, reverse=True), f"parts {parts} not descending")
        _require({int(j): m for j, m in part["frequencies"].items()} == freq,
                 "frequencies do not match parts")
        if want_parts is not None:
            _require(freq == want_parts, f"partition {parts} is not the closed form {want_parts}")
        objective = _rational(result["objective"])
        own = sum((consts[j][0] ** 2 / consts[j][1] * m for j, m in freq.items()), Fraction(0))
        _require(objective == own, f"objective {objective} is not the partition's value {own}")
        _require(objective == best, f"objective {objective} is not the optimum {best}")
        _require(_rational(result["variance_factor"]) == 1 / objective, "variance factor != 1/objective")
        weights = {w["part"]: _rational(w["weight"]) for w in result["weights"]}
        _require(set(weights) == set(freq), "weights do not cover the parts")
        for j, a in weights.items():
            d, k = consts[j]
            _require(a == d / k / objective, f"weight for part {j} is {a}")
        identity = sum((weights[j] * consts[j][0] for j in parts), Fraction(0))
        _require(identity == 1, f"sum a_i d_i = {identity}, not 1")

    # -------------------------------------------------------- table

    def _check_table(self, expect, fmt, payload, stdout) -> None:
        lo, hi = expect["n_from"], expect["n_to"]
        if fmt == "json":
            _require((payload["n_from"], payload["n_to"]) == (lo, hi), "table range")
            _require(payload["table"] == "exponential", "table label")
            rows = [(r["n"], tuple(r["partition"]["parts"]),
                     _rational(r["objective"]), _rational(r["variance_factor"]))
                    for r in payload["rows"]]
        elif fmt == "csv":
            body = _csv_rows(stdout)
            _require(body[0] == ["n", "partition", "objective", "objective_float",
                                 "variance_factor", "variance_factor_float"], "csv header")
            rows = []
            for r in body[1:]:
                obj, vf = Fraction(r[2]), Fraction(r[4])
                _require(_close(float(obj), float(r[3]), 1e-12)
                         and _close(float(vf), float(r[5]), 1e-12), f"csv floats, n = {r[0]}")
                rows.append((int(r[0]), _parts(r[1]), obj, vf))
        else:
            lines = stdout.splitlines()
            _require(lines[0] == "optimal allocations, table = exponential", "text title")
            rows = []
            for line in lines[2:]:
                n, obj, vf, parts = line.split()
                rows.append((int(n), _parts(parts), float(obj), float(vf)))
        _require([r[0] for r in rows] == list(range(lo, hi + 1)), "table rows do not cover n_from..n_to")
        for n, parts, obj, vf in rows:
            best = closed_objective(n)
            _require(frequencies(parts) == closed_form(n), f"n = {n}: partition {parts}")
            if isinstance(obj, Fraction):
                _require(obj == best and vf == 1 / best, f"n = {n}: objective {obj}")
            else:
                _require(_close(obj, float(best), _FLOAT_REL)
                         and _close(vf, float(1 / best), _FLOAT_REL), f"n = {n}: objective {obj}")

    # -------------------------------------------------------- verify

    def _check_verify(self, expect, fmt, payload, stdout) -> None:
        lemma_max, agree_max = expect["lemma_max"], expect["agree_max"]
        if fmt == "json":
            lemma, agreement = payload["lemma"], payload["agreement"]
            _require(lemma["checked_upper"] == lemma_max, "checked_upper")
            _require(lemma["max_ratio_at"] == 4, f"peak at {lemma['max_ratio_at']}")
            _require(_rational(lemma["max_ratio"]) == PEAK_RATIO, "peak ratio value")
            _require(lemma["tail_bound_start"] == TAIL_START, "tail crossing")
            _require(lemma["envelope_ok"] and lemma["exact_ok"] and lemma["holds"], "lemma fails")
            _require(agreement["n_max"] == agree_max, "agreement range")
            _require(agreement["objectives_equal"] and not agreement["mismatches"], "solver mismatch")
            _require(agreement["ties"] == [], f"unexpected ties {agreement['ties']}")
            _require(payload["passed"] is True, "overall verdict")
            return
        if fmt == "csv":
            rows = _csv_rows(stdout)
            _require(rows[0] == ["check", "status", "detail"], "csv header")
            _require([r[:2] for r in rows[1:]] == [["peak_ratio", "PASS"],
                                                  ["solver_agreement", "PASS"],
                                                  ["overall", "PASS"]], "csv verdicts")
            _require(rows[1][2] == f"max at n=4 value {PEAK_RATIO} checked 2..{lemma_max} "
                                   f"tail from {TAIL_START}", "peak ratio detail")
            _require(rows[2][2] == f"n=2..{agree_max} mismatches=0 ties=0", "agreement detail")
            return
        want = [
            f"peak ratio: PASS  max C(n)/n at n = 4, value {PEAK_RATIO}, checked 2..{lemma_max}",
            f"  envelope decreasing and dominating: yes; crosses the peak at n = {TAIL_START}",
            f"solver agreement: PASS  dp/group_relaxation/closed_form over n = 2..{agree_max}, "
            "0 mismatches, 0 partition ties",
            "overall: PASS",
        ]
        _require(stdout.splitlines() == want, "verify text")

    # -------------------------------------------------------- count

    def _check_count(self, expect, fmt, payload, stdout) -> None:
        n = expect["n"]
        asymptotic = expect["asymptotic"]
        if fmt == "json":
            got_n, count = payload["n"], payload["admissible"]
            approx, ratio = payload.get("asymptotic"), payload.get("ratio")
            rel = 1e-12
        elif fmt == "csv":
            rows = _csv_rows(stdout)
            if asymptotic:
                _require(rows[0] == ["n", "admissible", "asymptotic", "ratio"], "csv header")
                got_n, count, approx, ratio = int(rows[1][0]), int(rows[1][1]), float(rows[1][2]), float(rows[1][3])
            else:
                _require(rows[0] == ["n", "admissible"], "csv header")
                got_n, count, approx, ratio = int(rows[1][0]), int(rows[1][1]), None, None
            rel = 1e-12
        else:
            lines = stdout.splitlines()
            m = re.fullmatch(r"admissible partitions of (\d+): (\d+)", lines[0])
            _require(m is not None, "count text")
            got_n, count = int(m[1]), int(m[2])
            approx = float(lines[1].split(":")[1]) if asymptotic else None
            ratio = float(lines[2].split(":")[1]) if asymptotic else None
            rel = _FLOAT_REL
        _require(got_n == n, f"n {got_n} != {n}")
        if n == 0:
            _require(count == 1, "count(0) != 1")
        else:
            _require(n <= self._count_max, f"n = {n} beyond the oracle's range")
            for prime, residues in zip(PRIMES, self._count_residues):
                _require(count % prime == residues[n], f"count({n}) wrong modulo {prime}")
        _require((approx is not None) == asymptotic, "asymptotic fields")
        if asymptotic:
            want = asymptotic_admissible(n)
            _require(_close(approx, want, rel), f"asymptotic {approx!r} != {want!r}")
            _require(_close(ratio, float(Fraction(count) / Fraction(want)), rel), "ratio")

    # -------------------------------------------------------- simulate

    def _check_simulate(self, expect, fmt, payload, stdout) -> None:
        if fmt == "json":
            p = payload
            got = dict(n=p["n"], theta=p["theta"], reps=p["replicates"], seed=p["seed"],
                       parts=tuple(p["partition"]["parts"]),
                       vf=_rational(p["variance_factor"]), mean=p["mean_estimate"],
                       var=p["variance_estimate"], sem=p["mean_std_error"],
                       theory=p["theoretical_variance"])
            rel = 1e-12
        elif fmt == "csv":
            rows = _csv_rows(stdout)
            _require(rows[0] == ["n", "theta", "replicates", "seed", "partition", "variance_factor",
                                 "mean_estimate", "variance_estimate", "mean_std_error",
                                 "theoretical_variance"], "csv header")
            r = rows[1]
            got = dict(n=int(r[0]), theta=float(r[1]), reps=int(r[2]), seed=int(r[3]),
                       parts=_parts(r[4]), vf=Fraction(r[5]), mean=float(r[6]),
                       var=float(r[7]), sem=float(r[8]), theory=float(r[9]))
            rel = 1e-12
        else:
            lines = stdout.splitlines()
            m = re.fullmatch(r"n = (\d+), partition ([\d,]+), theta = (\S+)", lines[0])
            m2 = re.fullmatch(r"replicates = (\d+), seed = (\d+)", lines[1])
            m3 = re.fullmatch(r"theoretical variance (\S+)  \(factor (\d+/\d+|\d+)\)", lines[5])
            _require(None not in (m, m2, m3), "simulate text")
            got = dict(n=int(m[1]), parts=_parts(m[2]), theta=float(m[3]), reps=int(m2[1]),
                       seed=int(m2[2]), mean=float(lines[2].split()[-1]),
                       sem=float(lines[3].split()[-1]), var=float(lines[4].split()[-1]),
                       theory=float(m3[1]), vf=Fraction(m3[2]))
            rel = _FLOAT_REL
        n, theta, reps = expect["n"], expect["theta"], expect["reps"]
        _require((got["n"], got["reps"], got["seed"]) == (n, reps, expect["seed"]), "echoed inputs")
        _require(_close(got["theta"], theta, rel), "echoed theta")
        want = expect.get("partition")
        freq = frequencies(got["parts"])
        _require(sum(got["parts"]) == n, f"parts {got['parts']} do not sum to {n}")
        if want is None:
            _require(freq == closed_form(n), f"partition {got['parts']} is not the closed form")
        else:
            _require(freq == frequencies(want), f"partition {got['parts']} is not {want}")
        objective = Fraction(0)
        for j, m in freq.items():
            d, k = (FROZEN_D[j], FROZEN_K[j]) if j in FROZEN_D else harmonic_constants(j)
            objective += d * d / k * m
        _require(got["vf"] == 1 / objective, f"variance factor {got['vf']}")
        _require(_close(got["theory"], float(got["vf"]) * theta * theta, rel), "theoretical variance")
        _require(_close(got["sem"], math.sqrt(got["var"] / reps), rel), "std error")
        check_calibration(got["mean"], got["var"], theta, got["vf"], reps)
