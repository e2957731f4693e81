"""Golden CLI transcript: every command and format, byte for byte.

``tests/golden/cli.txt`` records stdout, stderr and the exit code of
each case below.  Any change to what the CLI prints, including error
messages and exit codes, fails this test.  After an intended output
change, regenerate the file and review its diff:

    PYTHONPATH=src python tests/test_golden_cli.py

Cases run in process through ``main(argv)`` from a directory holding
the table files below, so paths and labels in the output are relative
and the same on every machine.  Each command of the README's transcripts
must print what the README shows.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shlex
import tempfile
from pathlib import Path

import pytest

from grouprange.cli import FORMAT_ENV, main

GOLDEN = Path(__file__).parent / "golden" / "cli.txt"
README = Path(__file__).parents[1] / "README.md"

TABLES = {
    "custom.csv": "j,d,k_sq\n2,1,1\n3,3/2,5/4\n4,11/6,49/36\n5,25/12,205/144\n"
                  "6,2.2,1.5\n7,2.4,1.55\n8,2.6,1.6\n",
    "bad_d.csv": "j,d,k_sq\n2,1,1\n3,0,5/4\n4,11/6,49/36\n",
    "neg_d.csv": "j,d,k_sq\n2,-1/2,1\n3,3/2,5/4\n",
    "bad_k_sq.csv": "j,d,k_sq\n2,1,1\n3,3/2,5/4\n4,11/6,0\n",
    "neg_k_sq.csv": "j,d,k_sq\n2,1,-3\n",
    "gap.csv": "j,d,k_sq\n2,1,1\n3,3/2,5/4\n5,25/12,205/144\n",
    "short.csv": "j,d,k_sq\n2,1,1\n3,3/2,5/4\n",
}

OK_CASES = [
    "optimal 22",
    "optimal 22 --method dp",
    "optimal 22 --method closed",
    "optimal 22 --method all",
    "optimal 6",
    "optimal 8 --table custom.csv",
    "optimal 8 --table custom.csv --method all",
    "table 2 12",
    "simulate 22 --reps 1000 --seed 42",
    "simulate 10 --reps 700 --seed 7 --theta 2.5 --partition 4,3,3",
    "simulate 9 --reps 1",
    "verify --lemma-max 40 --agree-max 30",
    "count 100 --asymptotic",
    "count 0",
]

ERROR_CASES = [
    "optimal 1",
    "table 1 5",
    "table 5 3",
    "simulate 1",
    "simulate 10 --reps 0",
    "simulate 10 --theta 0",
    "simulate 10 --seed -1",
    "simulate 10 --partition 4,x",
    "simulate 10 --partition 4,1,5",
    "simulate 10 --partition 4,4",
    "simulate 10 --partition ,",
    "verify --lemma-max 33",
    "verify --agree-max 1",
    "count -1",
    "count 0 --asymptotic",
    "optimal 5 --method closed --table custom.csv",
    "optimal 5 --table bad_d.csv",
    "optimal 5 --table neg_d.csv",
    "optimal 5 --table bad_k_sq.csv",
    "optimal 5 --table neg_k_sq.csv",
    "optimal 5 --table gap.csv",
    "optimal 5 --table short.csv",
    "optimal 5 --table missing.csv",
    "simulate 10 --theta nan",
    "simulate 10 --theta inf",
    "simulate 10 --theta 1e200",
]

# Benchmark-scale cases, one format each: the default method's DP
# cross-check at n = 731, the closed form at n = 2900, and the ascending
# table and verify sweeps.  All three formats would multiply the run
# time and, for json, the file size without pinning another code path.
LARGE_CASES = [
    "optimal 731 --format json",
    "optimal 2900 --method closed --format text",
    "table 2 290 --format csv",
    "verify --lemma-max 440 --agree-max 220 --format json",
]

# (environment value, command) pairs for the format variable
ENV_CASES = [
    ("json", "count 7"),
    ("csv", "optimal 9 --method closed"),
    ("", "count 7"),
    ("bogus", "count 7"),
]


def _cases() -> list[tuple[str | None, list[str]]]:
    cases: list[tuple[str | None, list[str]]] = []
    for command in OK_CASES:
        for fmt in ("text", "json", "csv"):
            cases.append((None, [*shlex.split(command), "--format", fmt]))
    cases.extend((None, shlex.split(command)) for command in LARGE_CASES)
    cases.extend((None, shlex.split(command)) for command in ERROR_CASES)
    cases.extend((env, shlex.split(command)) for env, command in ENV_CASES)
    return cases


def _run(env: str | None, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop(FORMAT_ENV, None)
    if env is not None:
        os.environ[FORMAT_ENV] = env
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop(FORMAT_ENV, None)
        if saved is not None:
            os.environ[FORMAT_ENV] = saved
    prefix = "" if env is None else f"{FORMAT_ENV}={shlex.quote(env)} "
    return (
        f"$ {prefix}grouprange {shlex.join(argv)}\n"
        f"--- stdout\n{out.getvalue()}"
        f"--- stderr\n{err.getvalue()}"
        f"--- exit {code}\n\n"
    )


def transcript() -> str:
    """Run every case from a scratch directory holding TABLES."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, text in TABLES.items():
            Path(work, name).write_text(text, encoding="utf-8")
        os.chdir(work)
        try:
            return "".join(_run(env, argv) for env, argv in _cases())
        finally:
            os.chdir(cwd)


def test_cli_transcript_matches_golden():
    expected = GOLDEN.read_text(encoding="utf-8")
    actual = transcript()
    assert actual == expected


def _readme_commands() -> list[tuple[str, str]]:
    """(arguments, stdout) of each ``$ grouprange`` line in the README's
    text blocks: the lines up to the next ``$`` line or the block's end."""
    cases = []
    for block in re.findall(r"^```text\n(.*?)^```", README.read_text(encoding="utf-8"),
                            re.M | re.S):
        for command in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, _, stdout = command.partition("\n")
            cases.append((line.removeprefix("grouprange "), stdout.rstrip("\n") + "\n"))
    return cases


@pytest.mark.parametrize("arguments, stdout", _readme_commands())
def test_readme_transcripts_match_the_cli(monkeypatch, capsys, arguments, stdout):
    monkeypatch.delenv(FORMAT_ENV, raising=False)
    code = main(shlex.split(arguments))
    assert (code, capsys.readouterr().out) == (0, stdout)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript(), encoding="utf-8")
