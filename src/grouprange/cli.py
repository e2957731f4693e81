"""Command-line interface.

The commands are optimal, table, simulate, verify and count; --help lists
each command's arguments and bounds.

Every command accepts --format {text,json,csv}; the default comes from
the GROUPRANGE_FORMAT environment variable, falling back to text.
JSON output is an envelope {command, format, payload} that validates
against schema/output.schema.json; exact rationals appear as
{"exact": "p/q", "float": ...} so nothing is reduced to a lossy float.
The JSON is written by _write_json, byte for byte what json.dump with
indent=2 writes, without loading json.

COMMANDS declares the command line once: _parse reads it with argparse's
grammar (unique prefixes, --opt=value, -1 as a value, --) and --help is
rendered from it.  A usage error is one "error:" line and exit 2.  Each
command also declares its text and CSV renderers: a handler checks its
input and returns its payload, and main renders it in the chosen format.

Output is written as it renders, once the payload is complete and
printable.  Exit codes: 0 success, 1 output not written (a full disk),
2 usage error, 3 input or table parse error, 4 verification failure
(solver disagreement or a failed check).  A closed pipe is no error:
every code stands, 4 included.
"""

from __future__ import annotations

import contextlib
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterator, NoReturn, Sequence

from .partitions import Partition, asymptotic_admissible, check_integer, count_admissible

if TYPE_CHECKING:  # for annotations only: each command imports the modules it runs
    from fractions import Fraction
    from .coefficients import CoefficientTable
    from .optimizer import SolveResult

__all__ = ["main", "run"]

FORMATS = ("text", "json", "csv")
FORMAT_ENV = "GROUPRANGE_FORMAT"
# --method's solvers by the name of their function in optimizer, looked up as a
# command runs, so that a patched or traced solver is the one called
SOLVERS = {"dp": "solve_dp", "gr": "solve_group_relaxation", "closed": "solve_closed_form"}
# The largest n each command takes, checked before any work; README.md's "Command
# line" section gives each bound's measured cost.  COUNT_MAX stays below 76,568,
# from which asymptotic_admissible rejects n.
COUNT_MAX, OPTIMAL_MAX, TABLE_MAX, VERIFY_MAX = 50_000, 10_000, 5_000, 5_000
CLOSED_MAX, LEMMA_MAX, TABLE_BYTES_MAX = 1_000_000, 50_000, 64_000_000
SIMULATE_MAX, REPS_MAX, DRAWS_MAX = 10_000, 20_000_000, 500_000_000


class UsageError(Exception):
    exit_code = 2


class InputError(Exception):
    exit_code = 3


class VerificationError(Exception):
    exit_code = 4

    def __init__(self, message: str, payload: dict[str, Any]) -> None:
        super().__init__(message)
        self.payload = payload


def _check_bounds(name: str, value: int, low: int, high: int | None = None) -> None:
    with _reraise(UsageError):
        check_integer(name, value, low, high)


def _agree(values: list) -> bool:
    """The one rule by which the solvers agree: every value equals the first."""
    return values.count(values[0]) == len(values)


@contextlib.contextmanager
def _reraise(error: type[Exception], prefix: str = "") -> Iterator[None]:
    """Raise a ValueError from the block as ``error``, its message after ``prefix``."""
    try:
        yield
    except ValueError as exc:
        raise error(f"{prefix}{exc}") from None


# ---------------------------------------------------------------- rendering


# Payloads hold values as they are computed: Fraction, Partition, int,
# float, str.  Each form of output converts them only when it prints.


def _fraction() -> type | tuple:
    """Fraction, once a payload that holds one has loaded its module; else ()."""
    return getattr(sys.modules.get("fractions"), "Fraction", ())  # count's never does


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_JOIN = 1 << 15  # JSON reaches stdout in joins of about 32 KB: a write per token is slower


def _json_str(s: str) -> str:
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    import json  # to escape a name past printable ASCII, such as a --table file's
    return json.dumps(s)


def _write_json(x: Any, write: Callable[[str], Any], pad: str = "\n") -> None:
    """Write ``x`` as ``json.dump(x, indent=2)`` would at indent ``pad``: a
    Fraction as {"exact": "p/q", "float": ...}, a Partition as {n, parts,
    frequencies} with each run of equal parts written by string repetition, in
    pieces of at most 32 KB."""
    inner = pad + "  "
    if isinstance(x, str):
        write(_json_str(x))
    elif x is None or isinstance(x, bool):
        write("null" if x is None else "true" if x else "false")
    elif isinstance(x, int):
        write(int.__repr__(x))
    elif isinstance(x, float):  # float.__repr__, as json does, for numpy's float64 too
        text = float.__repr__(x)
        write(_NON_FINITE.get(text, text))
    elif isinstance(x, dict):
        opening = "{"
        for key, value in x.items():
            write(f"{opening}{inner}{_json_str(key)}: ")
            _write_json(value, write, inner)
            opening = ","
        write(pad + "}" if x else "{}")
    elif isinstance(x, (list, tuple)):
        opening = "["
        for value in x:
            write(opening + inner)
            _write_json(value, write, inner)
            opening = ","
        write(pad + "]" if x else "[]")
    elif isinstance(x, Partition):
        item = f",{inner}  "
        opening = f'{{{inner}"n": {x.n},{inner}"parts": [{item[1:]}'
        for j, m in reversed(x.frequencies):
            write(f"{opening}{j}")
            unit = f"{item}{j}"
            step = _JOIN // len(unit)
            for left in range(m - 1, 0, -step):
                write(unit * min(step, left))
            opening = item
        counts = item.join(f'"{j}": {m}' for j, m in x.frequencies)
        write(f'{inner}],{inner}"frequencies": {{{item[1:]}{counts}{inner}}}{pad}}}')
    elif isinstance(x, _fraction()):
        _write_json({"exact": str(x), "float": float(x)}, write, pad)
    else:
        raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _approx(x: Fraction) -> str:
    return f"{x} (~ {float(x):.10g})"


def _result_payload(result: SolveResult, table: CoefficientTable) -> dict[str, Any]:
    from .estimator import make_plan
    plan = make_plan(result.partition, table)
    return {
        "method": result.method,
        "partition": result.partition,
        "objective": result.objective,
        "variance_factor": plan.variance_factor,
        "weights": [{"part": j, "weight": a} for j, _, a in plan.weights],
    }


def _check_printable(payload: Any) -> None:
    """Convert every exact value in ``payload`` to text, as each format does, so that
    one past the int-to-str limit is an InputError before any output is written."""
    exact = (int, _fraction())
    stack = [payload]
    with _reraise(InputError, "cannot print an exact value of the result: "):
        while stack:
            x = stack.pop()
            if isinstance(x, (dict, list, tuple)):
                stack.extend(x.values() if isinstance(x, dict) else x)
            elif isinstance(x, exact):
                str(x)


def _emit(command: str, fmt: str, payload: dict[str, Any]) -> None:
    *_, to_text, to_csv = COMMANDS[command]
    if fmt == "json":
        chunks, size = [], 0

        def put(text: str) -> None:
            nonlocal size
            chunks.append(text)
            size += len(text)
            if size > _JOIN:
                sys.stdout.write("".join(chunks))
                chunks.clear()
                size = 0

        _write_json({"command": command, "format": "json", "payload": payload}, put)
        print("".join(chunks))
    elif fmt == "csv":
        import csv  # here, so that only csv output (or a --table) loads it
        # csv prints a float by repr, a Fraction as p/q, a Partition as 5,5,4
        csv.writer(sys.stdout, lineterminator="\n").writerows(to_csv(payload))
    else:
        to_text(payload)


def _records_csv(records: list[dict[str, Any]]) -> Iterator[list[Any]]:
    """A header and one row per record, as they are written: its fields in order,
    ``<field>_float`` after each Fraction, and weights as ``part:weight`` pairs."""
    fraction = _fraction()
    for i, record in enumerate(records):
        row = {}
        for key, value in record.items():
            if key == "weights":
                value = " ".join(f"{w['part']}:{w['weight']}" for w in value)
            row[key] = value
            if isinstance(value, fraction):
                row[f"{key}_float"] = float(value)
        if i == 0:
            yield list(row)
        yield list(row.values())


# ---------------------------------------------------------------- optimal


def _optimal_text(payload: dict[str, Any]) -> None:
    print(f"n = {payload['n']}, table = {payload['table']}")
    for res in payload["results"]:
        print(f"method {res['method']}: partition {res['partition']}")
        print(f"  objective        {_approx(res['objective'])}")
        print(f"  variance factor  {_approx(res['variance_factor'])}")
        for w in res["weights"]:
            print(f"  weight, size {w['part']} blocks: {_approx(w['weight'])}")
    if "agreement" in payload:
        ok = payload["agreement"]["objectives_equal"]
        print(f"agreement ({'/'.join(payload['agreement']['methods'])}): "
              f"{'objectives equal' if ok else 'OBJECTIVES DIFFER'}")


def cmd_optimal(args: SimpleNamespace) -> dict[str, Any]:
    from . import optimizer

    n = args.n
    _check_bounds("n", n, 2)
    custom = args.table is not None
    if args.method == "closed" and custom:
        raise UsageError("the closed-form method applies only to the built-in exponential table")
    if args.method == "closed" and n > CLOSED_MAX:
        raise UsageError(f"n must be <= {CLOSED_MAX} with --method closed, got {n}")
    if args.method != "closed" and n > OPTIMAL_MAX:
        raise UsageError(f"n must be <= {OPTIMAL_MAX} ({CLOSED_MAX} with --method closed), got {n}")

    table = _load_cli_table(args, n)
    # the default gr is checked against dp, whose result it does not show
    names = {"gr": ["gr", "dp"], "all": ["dp", "gr"] + ([] if custom else ["closed"])}
    checked = [getattr(optimizer, SOLVERS[m])(n, table) for m in names.get(args.method, [args.method])]
    shown = checked[:1] if args.method == "gr" else checked
    agreed = _agree([r.objective for r in checked])

    payload: dict[str, Any] = {"n": n, "table": table.distribution_label,
                               "results": [_result_payload(r, table) for r in shown]}
    if args.method == "gr":
        payload["cross_checked"] = True
    if args.method == "all" or not agreed:
        payload["agreement"] = {"methods": [r.method for r in checked], "objectives_equal": agreed}
    if not agreed:
        raise VerificationError("solver objectives disagree", payload)
    return payload


# ---------------------------------------------------------------- table


def _table_text(payload: dict[str, Any]) -> None:
    print(f"optimal allocations, table = {payload['table']}")
    print(f"{'n':>5}  {'objective':>16}  {'variance_factor':>16}  partition")
    for row in payload["rows"]:
        print(f"{row['n']:>5}  {float(row['objective']):>16.10g}"
              f"  {float(row['variance_factor']):>16.10g}  {row['partition']}")


def cmd_table(args: SimpleNamespace) -> dict[str, Any]:
    from .coefficients import exponential_table
    from .optimizer import solve_group_relaxation

    _check_bounds("n_from", args.n_from, 2)
    if args.n_to < args.n_from:
        raise UsageError(f"n_to must be >= n_from, got {args.n_to} < {args.n_from}")
    _check_bounds("n_to", args.n_to, args.n_from, TABLE_MAX)
    table = exponential_table(args.n_to)
    rows = []
    for n in range(args.n_from, args.n_to + 1):
        result = solve_group_relaxation(n, table)
        rows.append({
            "n": n,
            "partition": result.partition,
            "objective": result.objective,
            "variance_factor": 1 / result.objective,
        })
    return {
        "n_from": args.n_from,
        "n_to": args.n_to,
        "table": table.distribution_label,
        "rows": rows,
    }


# ---------------------------------------------------------------- simulate


def _simulate_text(payload: dict[str, Any]) -> None:
    print(f"n = {payload['n']}, partition {payload['partition']}, theta = {payload['theta']}")
    print(f"replicates = {payload['replicates']}, seed = {payload['seed']}")
    print(f"mean estimate        {payload['mean_estimate']:.10g}")
    print(f"mean std error       {payload['mean_std_error']:.10g}")
    print(f"empirical variance   {payload['variance_estimate']:.10g}")
    print(f"theoretical variance {payload['theoretical_variance']:.10g}"
          f"  (factor {payload['variance_factor']})")


def _parse_partition_spec(spec: str, n: int) -> Partition:
    try:
        parts = [int(piece) for piece in spec.split(",") if piece.strip()]
    except ValueError:
        raise UsageError(f"cannot parse --partition {spec!r}") from None
    if not parts:
        raise UsageError("--partition needs at least one part")
    for part in parts:
        if part < 2:
            raise UsageError(f"inadmissible part {part} in --partition (parts must be >= 2)")
    if sum(parts) != n:
        raise UsageError(f"--partition parts sum to {sum(parts)}, n is {n}")
    return Partition.from_parts(parts)


def cmd_simulate(args: SimpleNamespace) -> dict[str, Any]:
    from .coefficients import exponential_table
    from .estimator import check_seed, check_theta, make_plan
    from .optimizer import solve_group_relaxation

    n = args.n
    _check_bounds("n", n, 2, SIMULATE_MAX)
    if args.theta <= 0:
        raise UsageError(f"--theta must be > 0, got {args.theta}")
    with _reraise(UsageError):
        check_theta("--theta", args.theta)
    _check_bounds("--reps", args.reps, 1, REPS_MAX)
    if n * args.reps > DRAWS_MAX:
        raise UsageError(f"n * --reps must be <= {DRAWS_MAX} draws, got {n * args.reps}")
    with _reraise(UsageError):
        check_seed("--seed", args.seed)

    table = exponential_table(n)
    if args.partition is not None:
        partition = _parse_partition_spec(args.partition, n)
    else:
        partition = solve_group_relaxation(n, table).partition
    plan = make_plan(partition, table)
    _check_printable(plan.variance_factor)  # the one exact value shown; fail before simulating
    from .simulation import monte_carlo  # after the checks: only a run that simulates loads numpy
    report = monte_carlo(plan, args.theta, args.reps, args.seed)

    return {
        "n": report.n,
        "theta": report.theta,
        "replicates": report.replicates,
        "seed": report.seed,
        "partition": report.plan_partition,
        "variance_factor": plan.variance_factor,
        "mean_estimate": report.mean_estimate,
        "variance_estimate": report.variance_estimate,
        "mean_std_error": report.mean_std_error,
        "theoretical_variance": report.theoretical_variance,
    }


# ---------------------------------------------------------------- verify


def _verify_text(payload: dict[str, Any]) -> None:
    lemma = payload["lemma"]
    status = "PASS" if lemma["holds"] else "FAIL"
    print(f"peak ratio: {status}  max C(n)/n at n = {lemma['max_ratio_at']}, "
          f"value {lemma['max_ratio']}, checked 2..{lemma['checked_upper']}")
    print(f"  envelope decreasing and dominating: "
          f"{'yes' if lemma['envelope_ok'] else 'NO'}; "
          f"crosses the peak at n = {lemma['tail_bound_start']}")
    agreement = payload["agreement"]
    status = "PASS" if agreement["objectives_equal"] else "FAIL"
    print(f"solver agreement: {status}  dp/group_relaxation/closed_form over "
          f"n = 2..{agreement['n_max']}, {len(agreement['mismatches'])} mismatches, "
          f"{len(agreement['ties'])} partition ties")
    print(f"overall: {'PASS' if payload['passed'] else 'FAIL'}")


def _verify_csv(payload: dict[str, Any]) -> Iterator[list[Any]]:
    lemma = payload["lemma"]
    agreement = payload["agreement"]
    checks = [
        ("peak_ratio", lemma["holds"],
         f"max at n={lemma['max_ratio_at']} value {lemma['max_ratio']} "
         f"checked 2..{lemma['checked_upper']} tail from {lemma['tail_bound_start']}"),
        ("solver_agreement", agreement["objectives_equal"],
         f"n=2..{agreement['n_max']} mismatches={len(agreement['mismatches'])} "
         f"ties={len(agreement['ties'])}"),
        ("overall", payload["passed"], ""),
    ]
    return _records_csv([{"check": check, "status": "PASS" if ok else "FAIL", "detail": detail}
                         for check, ok, detail in checks])


def cmd_verify(args: SimpleNamespace) -> dict[str, Any]:
    from . import optimizer
    from .coefficients import exponential_table
    from .lemma import verify_lemma

    _check_bounds("--lemma-max", args.lemma_max, 34, LEMMA_MAX)
    _check_bounds("--agree-max", args.agree_max, 2, VERIFY_MAX)

    table = exponential_table(max(args.lemma_max, args.agree_max))
    report = verify_lemma(args.lemma_max, table)

    mismatches: list[int] = []
    ties: list[int] = []
    for n in range(2, args.agree_max + 1):
        results = [getattr(optimizer, name)(n, table) for name in SOLVERS.values()]
        if not _agree([r.objective for r in results]):
            mismatches.append(n)
        elif not _agree([r.partition for r in results]):
            ties.append(n)  # equal objectives, different maximizers

    payload = {
        "lemma": {**report._asdict(), "holds": report.holds},
        "agreement": {
            "n_max": args.agree_max,
            "objectives_equal": not mismatches,
            "mismatches": mismatches,
            "ties": ties,
        },
        "passed": report.holds and not mismatches,
    }
    if not payload["passed"]:
        raise VerificationError("verification failed", payload)
    return payload


# ---------------------------------------------------------------- count


def _count_text(payload: dict[str, Any]) -> None:
    print(f"admissible partitions of {payload['n']}: {payload['admissible']}")
    if "asymptotic" in payload:
        print(f"asymptotic estimate: {payload['asymptotic']:.10g}")
        print(f"exact / asymptotic:  {payload['ratio']:.10g}")


def cmd_count(args: SimpleNamespace) -> dict[str, Any]:
    _check_bounds("n", args.n, 0, COUNT_MAX)
    payload: dict[str, Any] = {"n": args.n, "admissible": count_admissible(args.n)}
    if args.asymptotic:
        if args.n < 1:
            raise UsageError("--asymptotic needs n >= 1")
        approx = asymptotic_admissible(args.n)
        payload["asymptotic"] = approx
        # one correctly rounded division of exact integers; O(1) though the count overflows a float
        num, den = approx.as_integer_ratio()
        payload["ratio"] = payload["admissible"] * den / num
    return payload


# ---------------------------------------------------------------- plumbing


def _load_cli_table(args: SimpleNamespace, n: int) -> CoefficientTable:
    from .coefficients import CoefficientTableError, exponential_table, load_table
    if args.table is None:
        return exponential_table(n)
    try:
        with open(args.table, "rb") as handle:
            raw = handle.read(TABLE_BYTES_MAX + 1)
        if len(raw) > TABLE_BYTES_MAX:
            raise InputError(f"table file is longer than {TABLE_BYTES_MAX} bytes")
        table = load_table(raw, label=os.path.basename(args.table), max_part=n)
    except OSError as exc:
        raise InputError(f"cannot read table file: {exc}") from None
    except CoefficientTableError as exc:
        raise InputError(f"bad coefficient table: {exc}") from None
    if table.max_part < n:
        raise InputError(f"table covers parts 2..{table.max_part}, but n = {n} needs 2..{n}")
    return table


# ---------------------------------------------------------------- command line


# The command line, declared once: _parse reads it and _help renders it.  A command has its
# handler, its help, its arguments in order as (type, default, help), and its text and CSV
# renderers; a name without dashes is a positional, a tuple type lists choices, a bool a flag.
DESCRIPTION = ("Minimum-variance unbiased weighted-range estimation "
               "of an exponential scale parameter.")
_FORMAT = (FORMATS, None, f"output format (default: ${FORMAT_ENV} or text)")
_HELP = (bool, False, "show this help and exit")
COMMANDS: dict[str, tuple] = {
    "optimal": (cmd_optimal, "optimal allocation for one n", {
        "n": (int, None, f"number of observations, 2..{OPTIMAL_MAX} "
                         f"(2..{CLOSED_MAX} with --method closed)"),
        "--method": ((*SOLVERS, "all"), "gr",
                     "solver (default: group relaxation with dp cross-check)"),
        "--table": (str, None, "coefficient CSV for a non-exponential distribution"),
        "--format": _FORMAT}, _optimal_text, lambda payload: _records_csv(payload["results"])),
    "table": (cmd_table, "optimal allocations for a range of n", {
        "n_from": (int, None, "at least 2"), "n_to": (int, None, f"at most {TABLE_MAX}"),
        "--format": _FORMAT}, _table_text, lambda payload: _records_csv(payload["rows"])),
    "simulate": (cmd_simulate, "Monte-Carlo run of an estimator plan", {
        "n": (int, None, f"number of observations, 2..{SIMULATE_MAX}"),
        "--theta": (float, 1.0, "true scale (default 1.0)"),
        "--reps": (int, 100_000, f"number of replicates (default 100000, at most {REPS_MAX} "
                                 f"and {DRAWS_MAX} draws, n per replicate)"),
        "--seed": (int, 0, "64-bit seed (default 0)"),
        "--partition": (str, None, "comma-separated parts, e.g. 5,5,4,4,4 (default: optimal)"),
        # one plain row: variance_factor has no _float column
        "--format": _FORMAT}, _simulate_text, lambda payload: [list(payload), list(payload.values())]),
    "verify": (cmd_verify, "peak-ratio and solver-agreement checks", {
        "--lemma-max": (int, 1000, "upper end of the peak-ratio scan "
                                   f"(default 1000, 34..{LEMMA_MAX})"),
        "--agree-max": (int, 400, "upper end of the solver-agreement sweep "
                                  f"(default 400, 2..{VERIFY_MAX})"),
        "--format": _FORMAT}, _verify_text, _verify_csv),
    "count": (cmd_count, "count admissible partitions", {
        "n": (int, None, f"number of observations, 0..{COUNT_MAX}"),
        "--asymptotic": (bool, False,
                         "include the asymptotic estimate and the exact/asymptotic ratio"),
        "--format": _FORMAT}, _count_text, lambda payload: _records_csv([payload])),
}


def _option(token: str, options: dict[str, tuple]) -> list[str] | None:
    """The options ``token`` names before any '=', in full or as a prefix of a long
    option; None for a value: not led by '-', or '-', a negative number or spaced.
    An ambiguous prefix is a usage error."""
    key = token.partition("=")[0]
    if key in options or token.startswith("-h"):  # -h, the one short option, also as -h5
        return [key if key in options else "-h"]
    named = [name for name in options if key.startswith("--") and name.startswith(key)]
    whole, dot, fraction = token[1:].partition(".")
    number = (whole.isdecimal() or dot and not whole) and (not dot or fraction.isdecimal())
    value = not token.startswith("-") or token == "-" or number or " " in token
    if len(named) > 1 and token != "--":
        raise UsageError(f"ambiguous option: {token} could match {', '.join(named)}")
    return None if value and not named else named


def _convert(name: str, kind: Any, token: str) -> Any:
    if isinstance(kind, tuple) and token not in kind:
        raise UsageError(f"argument {name}: invalid choice: {token!r} "
                         f"(choose from {', '.join(map(repr, kind))})")
    try:
        return token if isinstance(kind, tuple) else kind(token)
    except ValueError:
        raise UsageError(f"argument {name}: invalid {kind.__name__} value: {token!r}") from None


def _parse(argv: Sequence[str]) -> SimpleNamespace | str:
    """Read ``argv`` by COMMANDS as argparse would: a long option may be any unique prefix
    and take its value as --opt=value or as the next argument, a repeated option's last
    value wins, -1 is a value, and after -- every argument is positional.  Return the
    help text for --help."""
    command, spec, args, extras, dashes = None, {}, {}, [], False
    options = {"-h": _HELP, "--help": _HELP}
    tokens = iter(argv)
    for token in tokens:
        named = None if dashes else _option(token, options)
        free = [name for name in spec if name[0] != "-" and name not in args]
        if token == "--" and not dashes:
            dashes = True
        elif named is None and command is None:
            command = _convert("command", tuple(COMMANDS), token)
            spec = COMMANDS[command][2]
            options.update((name, arg) for name, arg in spec.items() if name[0] == "-")
            args = {name[2:].replace("-", "_"): default
                    for name, (_, default, _) in spec.items() if name[0] == "-"}
        elif named is None and free:
            args[free[0]] = _convert(free[0], spec[free[0]][0], token)
        elif not named:  # an extra positional or an unknown option
            extras.append(token)
        else:
            name, kind, value = named[0], options[named[0]][0], token.partition("=")[2]
            explicit = "=" in token
            if name == "-h" and token != name:  # -h5 and -h=5 give -h a value; -hh is -h -h
                value = (token[3:] if token[2] == "=" else token[2:]).lstrip("h")
                explicit = value != "" or token == "-h="
            if kind is bool and explicit:
                label = "-h/--help" if options[name] is _HELP else name
                raise UsageError(f"argument {label}: ignored explicit argument {value!r}")
            if options[name] is _HELP:  # as argparse, refuse an ambiguous option up to -- first
                for later in iter(tokens.__next__, "--"):
                    _option(later, options)
                return _help(command)
            if kind is not bool and "=" not in token:
                value = next(tokens, None)
                if value is None or _option(value, options) is not None:
                    raise UsageError(f"argument {name}: expected one argument")
            args[name[2:].replace("-", "_")] = kind is bool or _convert(name, kind, value)
    missing = [name for name in spec if name[0] != "-" and name not in args]
    if command is None or missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing or ['command'])}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    args["format"] = args["format"] or os.environ.get(FORMAT_ENV) or "text"
    if args["format"] not in FORMATS:
        raise UsageError(f"{FORMAT_ENV}={args['format']!r} is not a valid format "
                         f"(expected one of {', '.join(FORMATS)})")
    return SimpleNamespace(command=command, func=COMMANDS[command][0], **args)


def _help(command: str | None) -> str:
    """The --help text of the program or of one command, rendered from COMMANDS."""
    if command is None:
        usage, about = f"{{{','.join(COMMANDS)}}} ...", DESCRIPTION
        rows = [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        _, about, spec, *_ = COMMANDS[command]
        rows = []
        for name, (kind, _, text) in spec.items():
            if name[0] == "-" and kind is not bool:
                name += f" {{{','.join(kind)}}}" if isinstance(kind, tuple) else f" {name[2:].upper()}"
            rows.append((name, text))
        usage = " ".join([command, *(name if name[0] != "-" else f"[{name}]" for name, _ in rows)])
    rows.append(("-h, --help", _HELP[2]))
    return (f"usage: grouprange {usage}\n\n{about}\n\n"
            + "".join(f"  {name:<28} {text}\n" for name, text in rows))


def _error(message: str) -> None:
    """The one ``error:`` line; a stderr that cannot take it keeps the exit code."""
    with contextlib.suppress(OSError):
        print(f"error: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and render its payload; return its exit code.  The output,
    ``--help`` included, is written to stdout as it renders, once the payload is
    complete and printable, and then flushed."""
    code, failed_check = 0, None
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if not isinstance(args, str):
            try:
                payload = args.func(args)
            except VerificationError as exc:  # shown, then the check's error line
                payload, code, failed_check = exc.payload, exc.exit_code, exc
            _check_printable(payload)
    except (UsageError, InputError) as exc:  # nothing is written yet
        _error(str(exc))
        return exc.exit_code
    try:
        with contextlib.suppress(BrokenPipeError):  # a reader that closed early: the code stands
            if isinstance(args, str):
                sys.stdout.write(args)
            else:
                _emit(args.command, args.format, payload)
            sys.stdout.flush()
    except OSError as exc:
        _error(f"cannot write output: {exc}")
        code = 1
    if failed_check is not None:
        _error(str(failed_check))
    return code


def run() -> NoReturn:
    """Process entry: ``main()``, which writes and flushes the output, then end the process
    without the interpreter's teardown.  Where hashlib's built-in hashes are all there, keep
    out OpenSSL's _hashlib, which numpy.random loads via hmac (3.4 MiB) and no command uses.
    Keep out ctypes too: numpy imports it only optionally, and it maps _ctypes and libffi
    (0.3 MB) for an ndarray.ctypes no command reads.  A process that imports the package
    as a library keeps both."""
    from importlib.util import find_spec
    sha2 = ["_sha2"] if sys.version_info >= (3, 12) else ["_sha256", "_sha512"]
    if all(map(find_spec, ["_md5", "_sha1", "_blake2", "_sha3", *sha2])):  # a build may lack one
        sys.modules.setdefault("_hashlib", None)
    sys.modules.setdefault("ctypes", None)
    code = main()
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
