"""Start-up cost: each command loads only the modules it runs.  Only
`simulate` loads numpy, no command loads `dataclasses` or `inspect`,
no command loads `argparse` or `json` (the CLI parses its own command
line and writes its own JSON), a command loads `csv` only to print CSV
or to read a `--table`, `count` loads no solver module and neither
`fractions` nor `decimal`, and only `verify` loads `grouprange.lemma`.

Every command but `simulate` is exact and needs no numpy, and numpy is
most of the package's import time.  Each case runs one CLI command in
a fresh interpreter and reports whether numpy was imported, so a stray
top-level import of `grouprange.simulation` fails here.  The package
still exports the simulation names, served on first access.

`dataclasses` imports `inspect` (and with it `ast`, `dis` and
`tokenize`) and generates code per decorated class, the largest fixed
cost an exact command had left after numpy.  The records are therefore
NamedTuples and plain classes; the tests below check that they stay
immutable and that no exact command loads either module beyond what a
bare interpreter (with this environment's site hooks) already loads.

`count` is the paper's partition count and the benchmark's start-up
probe (`count 0 --format json`); it needs `grouprange.partitions` and
integers only.  The package therefore serves every public name on
first access, and `cli` imports the solver modules inside the commands
that run them: a bare `import grouprange` loads no module of the
package.

The process entry `cli.run` keeps OpenSSL's _hashlib, which numpy.random
loads through secrets and hmac, out of the CLI process where CPython's
built-in hashes can serve hashlib, and keeps out ctypes, which numpy
imports only optionally; a library user's process keeps both.

The cases that check the commands run each command line once, through
`cli.main` in a fresh interpreter, and read its exit code and
`sys.modules` after it returns.  That listing names every module the
command loaded, also one the package serves through
`importlib.import_module`, which `-X importtime` does not list.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import grouprange
from grouprange import (
    Partition,
    build_residue_graph,
    coefficients,
    estimator,
    exactmath,
    exponential_table,
    lemma,
    make_plan,
    optimizer,
    partitions,
    simulation,
    solve_dp,
    verify_lemma,
)

from conftest import child_env

CHILD = """
import sys
from grouprange.cli import main
code = main(sys.argv[1:])
loaded = sorted(sys.modules)  # before the json this child needs to report them
import json
print(json.dumps({"code": code, "modules": loaded}))
"""

CUSTOM_TABLE = ("j,d,k_sq\n2,1,1\n3,3/2,5/4\n4,11/6,49/36\n5,25/12,205/144\n"
                "6,2.2,1.5\n7,2.4,1.55\n8,2.6,1.6\n")

LAZY_NAMES = ("BLOCK_REPLICATES", "SimulationReport", "monte_carlo",
              "replicate_stream", "sample_exponential")


def run_python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(),
                          capture_output=True, text=True, timeout=120)


def run_child(args: list[str], cwd: Path, code: str = CHILD) -> subprocess.CompletedProcess:
    return run_python(["-c", code, *args], cwd)


EXACT_CASES = [
    ["optimal", "22"],
    ["optimal", "22", "--method", "closed"],
    ["optimal", "22", "--method", "all"],
    ["optimal", "8", "--table", "custom.csv", "--method", "all"],
    ["table", "2", "30"],
    ["verify", "--lemma-max", "40", "--agree-max", "30"],
    ["count", "50", "--asymptotic"],
]

SIMULATE_USAGE_ERRORS = [
    ["simulate", "10", "--theta", "0"],
    ["simulate", "10", "--theta", "nan"],
    ["simulate", "10", "--reps", "0"],
    ["simulate", "10", "--partition", "4,1,5"],
    ["simulate", "10001"],
    ["simulate", "10", "--reps", "1000000000000"],
    ["simulate", "1000", "--reps", "500001"],
    ["simulate", "10", "--seed", "18446744073709551616"],
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("work")
    (path / "custom.csv").write_text(CUSTOM_TABLE)
    return path


@pytest.fixture(scope="module")
def bare_modules(tmp_path_factory):
    """What the interpreter loads before any code of ours, site hooks included."""
    proc = run_child([], tmp_path_factory.mktemp("bare"),
                     "import sys; print(' '.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.fixture(scope="module")
def cli_in_child(workdir):
    """argv -> (exit code of main(argv), every module loaded when it
    returns), each command line run once in a fresh interpreter."""
    runs: dict[tuple[str, ...], tuple[int, set[str]]] = {}

    def run(argv: list[str]) -> tuple[int, set[str]]:
        if tuple(argv) not in runs:
            proc = run_child(argv, workdir)
            assert proc.returncode == 0, proc.stderr
            report = json.loads(proc.stdout.splitlines()[-1])
            runs[tuple(argv)] = report["code"], set(report["modules"])
        return runs[tuple(argv)]

    return run


@pytest.fixture(scope="module")
def modules_loaded(cli_in_child, bare_modules):
    """argv -> the modules a command loads beyond the bare interpreter; it must exit 0."""
    def loaded(argv: list[str]) -> set[str]:
        code, modules = cli_in_child(argv)
        assert code == 0
        return modules - bare_modules

    return loaded


@pytest.mark.parametrize("argv", EXACT_CASES, ids=" ".join)
def test_exact_command_never_loads_numpy(argv, cli_in_child):
    code, modules = cli_in_child(argv)
    assert (code, "numpy" in modules) == (0, False)


SLOW_IMPORTS = {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", EXACT_CASES, ids=" ".join)
def test_exact_command_never_loads_dataclasses_or_inspect(argv, modules_loaded):
    assert modules_loaded(argv) & SLOW_IMPORTS == set()


# the CLI parses its own command line and writes its own JSON
PARSER_AND_FORMATS = {"argparse", "gettext", "locale", "json", "csv"}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", EXACT_CASES, ids=" ".join)
def test_command_loads_only_the_format_it_prints(argv, fmt, modules_loaded):
    expected = {"csv"} if fmt == "csv" or "--table" in argv else set()  # csv reads tables
    loaded = modules_loaded([*argv, "--format", fmt])
    assert loaded & PARSER_AND_FORMATS == expected


SOLVER_STACK = {"fractions", "decimal", "grouprange.coefficients", "grouprange.optimizer",
                "grouprange.estimator", "grouprange.lemma", "grouprange.exactmath"}
COUNT_CASES = [["count", "50", "--asymptotic"], ["count", "0", "--format", "json"]]


@pytest.mark.parametrize("argv", COUNT_CASES, ids=" ".join)
def test_count_loads_no_solver_and_no_fractions(argv, modules_loaded):
    loaded = modules_loaded(argv)
    assert "grouprange.partitions" in loaded  # the listing names the package's modules
    assert loaded & (SOLVER_STACK | PARSER_AND_FORMATS) == set()


@pytest.mark.parametrize("argv", [*EXACT_CASES, ["simulate", "8", "--reps", "10"]], ids=" ".join)
def test_only_verify_loads_lemma(argv, modules_loaded):
    assert ("grouprange.lemma" in modules_loaded(argv)) == (argv[0] == "verify")


SUBMODULE_LOADS = {
    "partitions": ["grouprange.partitions"],
    "cli": ["grouprange.cli", "grouprange.partitions"],
    "simulation": ["grouprange.coefficients", "grouprange.estimator", "grouprange.optimizer",
                   "grouprange.partitions", "grouprange.simulation"],
}


def test_bare_package_import_loads_no_submodule(workdir):
    # a submodule is still an attribute of the package, loaded on first
    # access with only what it imports itself: only simulation loads numpy
    for name, loads in SUBMODULE_LOADS.items():
        code = ("import sys, grouprange\n"
                "loaded = lambda: sorted(m for m in sys.modules if 'grouprange.' in m)\n"
                "print(loaded())\n"
                f"print(grouprange.{name}.__name__, loaded(), 'numpy' in sys.modules)\n")
        proc = run_child([], workdir, code)
        assert proc.returncode == 0, proc.stderr
        numpy = name == "simulation"
        assert proc.stdout.splitlines() == ["[]", f"grouprange.{name} {loads} {numpy}"]


def test_lemma_loads_no_solver(workdir, bare_modules):
    # the lemma reads its tie margin from coefficients, beside the float
    # error bound it rests on, so importing it loads no optimizer and no
    # heapq
    proc = run_child([], workdir, "import sys, grouprange.lemma; print(' '.join(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split()) - bare_modules
    assert "grouprange.coefficients" in loaded
    assert loaded & {"grouprange.optimizer", "heapq"} == set()


RECORDS = ["Partition", "CoefficientEntry", "CoefficientTable", "SolveResult",
           "ResidueGraph", "EstimatorPlan", "LemmaReport", "SimulationReport"]


@pytest.fixture(scope="module")
def records():
    """One instance of each record, with one of its fields."""
    table = exponential_table(34)
    partition = Partition.from_parts([4, 4])
    plan = make_plan(partition, table)
    built = [
        (partition, "n"),
        (table.entry(4), "c"),
        (table, "entries"),
        (solve_dp(8, table), "objective"),
        (build_residue_graph(table, 8), "steps"),
        (plan, "weights"),
        (verify_lemma(34, table), "exact_ok"),
        (simulation.monte_carlo(plan, 1.0, 4, 0), "mean_estimate"),
    ]
    return {type(record).__name__: (record, field) for record, field in built}


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name, records):
    record, field = records[name]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value
    assert repr(record).startswith(f"{name}(") and f"{field}=" in repr(record)


@pytest.mark.parametrize("argv", SIMULATE_USAGE_ERRORS, ids=" ".join)
def test_simulate_usage_error_fails_before_numpy(argv, cli_in_child):
    code, modules = cli_in_child(argv)
    assert (code, "numpy" in modules) == (2, False)


def test_simulate_unprintable_result_fails_before_numpy(cli_in_child):
    # 139 distinct part sizes: the exact variance factor passes the
    # interpreter's 4,300-digit limit for printing an int, which exits 3
    # before the Monte Carlo runs
    argv = ["simulate", "9869", "--reps", "1", "--partition", ",".join(map(str, range(2, 141)))]
    code, modules = cli_in_child(argv)
    assert (code, "numpy" in modules) == (3, False)


def test_simulate_loads_numpy(cli_in_child):
    code, modules = cli_in_child(["simulate", "8", "--reps", "10"])
    assert (code, "numpy" in modules) == (0, True)


# the CLI process entry, its main wrapped to report what the run loaded
# and which module serves sha256 once it has run; the modules named in
# argv are blocked first, as on a build without them
CLI_RUN_CHILD = """
import sys
sys.modules.update(dict.fromkeys(sys.argv[1:]))
from grouprange import cli

def report(main=cli.main):
    code = main(["simulate", "8", "--reps", "10"])
    import hashlib
    digest = hashlib.sha256(b"abc")
    # flushed here, as run() ends the process without a flush of stdout
    print(code, "numpy" in sys.modules, getattr(sys.modules["_hashlib"], "__name__", None),
          type(digest).__module__, digest.hexdigest(), flush=True)
    return code

cli.main = report
cli.run()
"""

LIBRARY_CHILD = """
import sys
import grouprange
table = grouprange.exponential_table(8)
plan = grouprange.make_plan(grouprange.Partition.from_parts([4, 4]), table)
grouprange.monte_carlo(plan, 1.0, 10, 0)
import hashlib
digest = hashlib.sha256(b"abc")
print("numpy" in sys.modules, sys.modules["_hashlib"].__name__, type(digest).__module__,
      digest.hexdigest(), sys.modules["ctypes"].__name__)
"""

# the CLI process entry, its main wrapped to report whether the run loaded
# numpy, what sys.modules holds as ctypes and whether _ctypes is mapped;
# given an argument, the child imports ctypes before run()
CLI_CTYPES_CHILD = """
import sys
if sys.argv[1:]:
    import ctypes
from grouprange import cli

def report(main=cli.main):
    code = main(["simulate", "8", "--reps", "10"])
    with open("/proc/self/maps") as maps:
        mapped = any("_ctypes" in line for line in maps)
    print(code, "numpy" in sys.modules, getattr(sys.modules["ctypes"], "__name__", None), mapped,
          flush=True)
    return code

cli.main = report
cli.run()
"""

needs_proc_maps = pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                                     reason="reads the process's mappings from /proc/self/maps")

ABC_SHA256 = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def test_cli_process_runs_without_openssl(workdir):
    proc = run_child([], workdir, CLI_RUN_CHILD)
    assert (proc.returncode, proc.stderr) == (0, "")
    code, numpy_loaded, hashlib_module, digest_module, digest = proc.stdout.splitlines()[-1].split()
    assert (code, numpy_loaded, hashlib_module) == ("0", "True", "None")
    assert digest_module != "_hashlib" and digest == ABC_SHA256


@pytest.mark.parametrize("missing", [["_sha2", "_sha512"], ["_md5"]])
def test_cli_process_keeps_openssl_without_a_builtin_hash(workdir, missing):
    # a build that lacks one of hashlib's built-in hashes keeps OpenSSL: random
    # takes sha512 from it, and hashlib logs no missing hash
    proc = run_child(missing, workdir, CLI_RUN_CHILD)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split()[-5:] == ["0", "True", "_hashlib", "_hashlib", ABC_SHA256]


def test_library_process_keeps_openssl(workdir):
    # only the CLI's process entry blocks _hashlib and ctypes: importing the
    # package and simulating leave a library user's hashlib on OpenSSL, and
    # numpy imports ctypes
    proc = run_child([], workdir, LIBRARY_CHILD)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["True", "_hashlib", "_hashlib", ABC_SHA256, "ctypes"]


@needs_proc_maps
def test_cli_process_runs_without_ctypes(workdir):
    proc = run_child([], workdir, CLI_CTYPES_CHILD)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split()[-4:] == ["0", "True", "None", "False"]


@needs_proc_maps
def test_cli_process_keeps_a_ctypes_imported_before_run(workdir):
    # run() blocks ctypes only where nothing has imported it yet
    proc = run_child(["import"], workdir, CLI_CTYPES_CHILD)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split()[-4:] == ["0", "True", "ctypes", "True"]


def test_bare_package_import_never_loads_numpy(workdir):
    proc = run_child([], workdir, "import sys, grouprange; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_every_public_name_resolves():
    for name in grouprange.__all__:
        assert getattr(grouprange, name) is not None, name


def test_public_names_are_each_modules_own():
    # the package lists no name of its own: its __all__ is the modules'
    modules = (coefficients, estimator, exactmath, lemma, optimizer, partitions)
    assert set(grouprange.__all__) == set().union(*(m.__all__ for m in modules), LAZY_NAMES)
    assert len(grouprange.__all__) == len(set(grouprange.__all__)) == 32
    assert grouprange._SIMULATION_NAMES == set(simulation.__all__) == set(LAZY_NAMES)
    # the tests' brute-force references, not the package's API
    for name in ("enumerate_admissible", "count_unrestricted", "asymptotic_unrestricted"):
        assert name not in grouprange.__all__ and not hasattr(grouprange, name), name


def test_lazy_names_are_the_simulation_objects():
    from grouprange import (
        BLOCK_REPLICATES,
        SimulationReport,
        monte_carlo,
        replicate_stream,
        sample_exponential,
    )

    assert BLOCK_REPLICATES == simulation.BLOCK_REPLICATES
    assert SimulationReport is simulation.SimulationReport
    assert monte_carlo is simulation.monte_carlo
    assert replicate_stream is simulation.replicate_stream
    assert sample_exponential is simulation.sample_exponential
    assert set(LAZY_NAMES) <= set(dir(grouprange))
    assert set(LAZY_NAMES) <= set(grouprange.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'grouprange' has no attribute 'no_such_name'"):
        grouprange.no_such_name  # noqa: B018
