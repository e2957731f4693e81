"""Single-site mutation audit of one source file, stdlib only.

    python tools/mutants.py --list src/grouprange/lemma.py
    python tools/mutants.py --run src/grouprange/lemma.py [--lines 85,95-110]

Each mutant changes one site of the file:

* a comparison operator: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``
  swap;
* a boolean operator: ``and`` and ``or`` swap;
* an arithmetic operator: ``+`` and ``-`` swap;
* an integer constant: k becomes k + 1.

Expressions inside f-strings are left alone: they only format messages.
The source is edited in place at the operator's or constant's position,
so every other byte (comments, layout, line numbers) stays as written.

``--list`` prints one line per site.  ``--run`` copies the checkout to a
temporary directory and runs ``python -m pytest -x -q`` there on each
``tests/test_*.py`` once, first those whose names contain the mutated
module's stem, so a wrong value fails fast where it is checked.  It checks
that the unchanged copy passes that run, then writes one mutant at a time
into the copy and repeats it.
Each run has a 300 s timeout and a 4 GiB address-space limit that only
the test process gets.  A mutant is killed when the tests fail,
survives when they pass, and times out when the run outlasts the limit.
The sites in EQUIVALENT are reported, not run.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

COMPARISONS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
               ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
ARITHMETIC = {ast.Add: ("+", "-"), ast.Sub: ("-", "+")}

# Mutants that no test can kill, because the program answers the same under
# them: (file name, function, the site's line up to and including the
# mutated token, reason).
EQUIVALENT = [
    ("lemma.py", "verify_lemma", "_E7_BELOW >",
     "a comparison of two constants: the partial sum of e**7 is not 1089"),
    ("lemma.py", "verify_lemma", "c_float(n) / n <",
     "a float tie margin: a ratio whose float lies on it is below 27/44 exactly too"),
    ("optimizer.py", "_scan", "r >=",
     "a float tie margin: no ratio lands exactly on it, and the exact test decides"),
    ("optimizer.py", "_scan", "state.paths = 1, 0",
     "best = 1 starts at ratio fc[1] / 1 = 0.0, as best = 0 does: part 2 replaces it"),
    ("optimizer.py", "_dp_extend", "if ratio >=",
     "a float tie margin: no ratio lands exactly on it, and the exact test decides"),
    ("partitions.py", "<module>", "_GUARD = 16",
     "one more guard bit: the series stays within its error budget"),
    ("partitions.py", "_cos", "extra = bits.bit_length() + 3",
     "one more working bit in the cosine: still within 2 units"),
    ("partitions.py", "_unrestricted", "d.bit_length() // 2 + 2",
     "one more bit of pi and C: every term is as precise or more"),
    ("partitions.py", "_term_count", "math.sinh(a / count) >=",
     "the remainder bound is a float that never equals 1/5 exactly"),
    ("coefficients.py", "_exponential_c_float", "if m <",
     "the direct sums take m = 20 too: c_float moves by 1.97u at most, inside FLOAT_C_ERROR"),
    ("coefficients.py", "_exponential_c_float", "if m < 20",
     "the seam moves to m = 21: c_float moves by 1.97u at most over j <= 3,000, inside FLOAT_C_ERROR"),
    ("coefficients.py", "_exponential_c_float", "x / 240",
     "H(m, 1)'s last series term: c_float moves by 1.97u at most over j <= 3,000, inside FLOAT_C_ERROR"),
    ("coefficients.py", "_exponential_c_float", "x / 30",
     "H(m, 2)'s last series term: c_float moves by 11.8u at most over j <= 3,000, inside FLOAT_C_ERROR"),
    ("coefficients.py", "load_table", "expected = 3 if len(row) <",
     "the branch runs only when len(row) != 3, so < 3 and <= 3 agree"),
]


class Site(NamedTuple):
    start: int  # byte offsets of the replaced text in the file
    end: int
    old: str
    new: str
    line: int
    column: int
    function: str

    @property
    def mutation(self) -> str:
        return f"{self.old} -> {self.new}"


def _blank_comments(text: str) -> str:
    """text with each comment replaced by spaces, so offsets stay put."""
    return re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), text)


def sites(source: bytes) -> list[Site]:
    """Every mutable site of the module, in source order."""
    tree = ast.parse(source)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def begin(node: ast.AST) -> int:
        return starts[node.lineno - 1] + node.col_offset

    def finish(node: ast.AST) -> int:
        return starts[node.end_lineno - 1] + node.end_col_offset

    found: list[Site] = []

    def operator(left: ast.AST, right: ast.AST, pattern: str, new: str, function: str) -> None:
        lo = finish(left)
        gap = _blank_comments(source[lo : begin(right)].decode())
        (match,) = re.finditer(pattern, gap)
        start = lo + len(gap[: match.start()].encode())
        line = source.count(b"\n", 0, start) + 1
        found.append(Site(start, start + len(match.group().encode()), match.group(), new,
                          line, start - starts[line - 1], function))

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, ast.JoinedStr):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if type(op) in COMPARISONS:
                    old, new = COMPARISONS[type(op)]
                    operator(left, right, rf"(?<![<>=!]){re.escape(old)}(?![<>=])", new, function)
        elif isinstance(node, ast.BoolOp):
            old, new = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
            for left, right in zip(node.values, node.values[1:]):
                operator(left, right, rf"\b{old}\b", new, function)
        elif isinstance(node, ast.BinOp) and type(node.op) in ARITHMETIC:
            old, new = ARITHMETIC[type(node.op)]
            operator(node.left, node.right, re.escape(old), new, function)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, int)
              and not isinstance(node.value, bool)):
            start, end = begin(node), finish(node)
            found.append(Site(start, end, source[start:end].decode(), str(node.value + 1),
                              node.lineno, node.col_offset, function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return sorted(found)


def equivalent(path: Path, site: Site, source: bytes) -> str | None:
    """The reason the site's mutant is equivalent, or None."""
    head = source.splitlines()[site.line - 1][: site.column + site.end - site.start]
    for name, function, fragment, reason in EQUIVALENT:
        if (path.name, site.function) == (name, function) and head.endswith(fragment.encode()):
            return reason
    return None


def mutate(source: bytes, site: Site) -> bytes:
    return source[: site.start] + site.new.encode() + source[site.end :]


def _line_filter(spec: str | None):
    if spec is None:
        return lambda line: True
    wanted: set[int] = set()
    for part in spec.split(","):
        first, _, last = part.partition("-")
        wanted.update(range(int(first), int(last or first) + 1))
    return wanted.__contains__


def pytest_command(root: Path, module: Path) -> list[str]:
    """The test run in the checkout at root: each tests/test_*.py once, those
    naming module's stem first."""
    files = sorted((root / "tests").glob("test_*.py"),
                   key=lambda p: (module.stem not in p.name, p.name))
    tests = [p.relative_to(root).as_posix() for p in files]
    return [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]


def _run_tests(copy: Path, command: list[str], timeout: float = 300,
               memory_mb: int = 4096) -> str:
    def limit() -> None:  # runs in the child only
        cap = memory_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    proc = subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, preexec_fn=limit, start_new_session=True)
    try:
        code = proc.wait(timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timed out"
    return "survived" if code == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--list", metavar="FILE", type=Path, help="print the file's sites")
    action.add_argument("--run", metavar="FILE", type=Path, help="run the tests under each mutant")
    parser.add_argument("--lines", help="only sites on these lines, e.g. 85,95-110")
    args = parser.parse_args(argv)

    path = (args.list or args.run).resolve()
    source = path.read_bytes()
    keep = _line_filter(args.lines)
    chosen = [(i, s) for i, s in enumerate(sites(source)) if keep(s.line)]

    def describe(i: int, site: Site) -> str:
        text = source.splitlines()[site.line - 1].decode().strip()
        where = f"{site.line}:{site.column}"
        return f"{i:4d} {where:>8} {site.function:<24} {site.mutation:<10} | {text}"

    if args.list:
        for i, site in chosen:
            reason = equivalent(path, site, source)
            print(describe(i, site) + (f"  [equivalent: {reason}]" if reason else ""))
        return 0

    relative = path.relative_to(ROOT)
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        copy = Path(work) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.pyc"))
        target = copy / relative
        command = pytest_command(copy, relative)
        if _run_tests(copy, command) != "survived":
            print("the unchanged copy fails its tests; no mutant run", file=sys.stderr)
            return 1
        tally: dict[str, int] = {}
        for i, site in chosen:
            reason = equivalent(path, site, source)
            if reason:
                outcome = "equivalent"
            else:
                target.write_bytes(mutate(source, site))
                outcome = _run_tests(copy, command)
                target.write_bytes(source)
            tally[outcome] = tally.get(outcome, 0) + 1
            print(f"{outcome:<10} {describe(i, site)}", flush=True)
    print(", ".join(f"{count} {outcome}" for outcome, count in sorted(tally.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
