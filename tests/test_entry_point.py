"""The process entry: `python -m grouprange.cli`, like the `grouprange`
console script that pyproject.toml declares, runs `cli.run`, which ends
the process without the interpreter's teardown once `main` has written
and flushed the output.

A child prints what in-process `main()` prints, byte for byte, and
exits with its code; a large output arrives whole through a pipe, and
its peak memory does not grow with the output; a reader that closes the
pipe early sees exit 0 and no stderr; output that cannot be written ends
in one `error:` line and exit 1; an `error:` line that cannot be written
keeps the exit code.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from grouprange.cli import main

from conftest import SRC, child_env

BAD_TABLE = "j,d,k_sq\n2,1,1\n3,0,5/4\n4,11/6,49/36\n"

PARITY_CASES = [
    (["optimal", "22"], 0),
    (["verify", "--lemma-max", "40", "--agree-max", "30"], 0),
    (["optimal", "1"], 2),
    (["optimal", "x"], 2),  # a usage error of the parser
    (["optimal", "5", "--table", "bad_d.csv"], 3),
]


def child(argv: list[str], cwd: Path, unbuffered: bool = False, **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "grouprange.cli", *argv], cwd=cwd,
                            env=child_env(unbuffered), **kwargs)


def run_child(argv: list[str], cwd: Path) -> tuple[int, bytes, bytes]:
    with child(argv, cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        out, err = proc.communicate(timeout=120)
    return proc.returncode, out, err


def run_main(capsysbinary, argv: list[str]) -> tuple[int, bytes, bytes]:
    code = main(argv)
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    (tmp_path / "bad_d.csv").write_text(BAD_TABLE)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("GROUPRANGE_FORMAT", raising=False)
    return tmp_path


def test_console_script_runs_cli_run():
    # the [project.scripts] line, read as text: Python 3.10 has no tomllib
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target = re.fullmatch(r'grouprange = "([\w.]+):(\w+)"', scripts.strip())
    assert target and target.groups() == ("grouprange.cli", "run")
    assert callable(getattr(importlib.import_module(target[1]), target[2]))


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv, code", PARITY_CASES, ids=[" ".join(a) for a, _ in PARITY_CASES])
def test_child_matches_main(argv, code, fmt, workdir, capsysbinary):
    argv = [*argv, "--format", fmt]
    in_process = run_main(capsysbinary, argv)
    assert in_process[0] == code
    assert run_child(argv, workdir) == in_process


def test_large_output_arrives_whole_through_a_pipe(workdir, capsysbinary):
    argv = ["table", "2", "5000", "--format", "json"]
    in_process = run_main(capsysbinary, argv)
    assert in_process[0] == 0 and len(in_process[1]) > 2_000_000
    assert run_child(argv, workdir) == in_process


@pytest.mark.parametrize("argv", [
    ["table", "2", "5000", "--format", "json"],  # 114 MB when main held the output whole
    ["table", "2", "5000", "--format", "csv"],
    ["table", "2", "5000", "--format", "text"],
    ["optimal", "1000000", "--method", "closed"],  # one partition of 250,000 parts
    ["optimal", "1000000", "--method", "closed", "--format", "json"],  # a 3.75 MB run, sliced
])
def test_output_memory_is_bounded(argv, cli_peak):
    # the output is written as it renders, so its size does not set the peak
    code, peak = cli_peak(*argv)
    assert code == 0
    assert peak < 32 * 2**20


@pytest.mark.parametrize("argv, read", [
    (["table", "2", "5000", "--format", "json"], 1),  # still writing: a write mid-render fails
    (["count", "0"], 0),  # closed before the child writes: the final flush fails
    (["--help"], 0),  # help fits stdout's buffer, so the final flush fails
    (["table", "2", "5000", "--format", "text"], 1),  # a print mid-render fails
])
def test_closed_pipe_ends_quietly(argv, read, workdir):
    for unbuffered in (False, True):  # unbuffered, the first write after the close fails
        with child(argv, workdir, unbuffered, stdout=subprocess.PIPE,
                   stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(read)) == read
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 0
        assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, unbuffered", [
    (["count", "0"], False),  # fails at the final flush
    (["count", "0"], True),  # fails at the first write
    (["table", "2", "3000", "--format", "json"], False),  # past the buffer: a write mid-render
    (["--help"], False),  # help fits stdout's buffer, so the final flush fails
    (["--help"], True),
    (["optimal", "--help"], True),  # a command's help
    (["table", "2", "5000", "--format", "text"], False),  # past the buffer: a print mid-render
])
def test_unwritable_output_exits_1(argv, unbuffered, workdir):
    with open("/dev/full", "wb") as full, child(argv, workdir, unbuffered, stdout=full,
                                                 stderr=subprocess.PIPE) as proc:
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b"error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv, code", [
    (["optimal", "1"], 2),
    (["optimal", "4", "--table", "missing.csv"], 3),
])
def test_unwritable_stderr_keeps_the_exit_code(argv, code, unbuffered, workdir):
    with open("/dev/full", "wb") as full, child(argv, workdir, unbuffered, stdout=subprocess.PIPE,
                                                 stderr=full) as proc:
        out = proc.stdout.read()
        assert proc.wait(timeout=120) == code
    assert out == b""
