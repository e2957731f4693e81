"""Shared fixtures.

The exponential tables are session scoped on purpose: the dynamic
program caches its fill per table object, so reusing one object makes
ascending sweeps cost a single fill instead of one per test.  Every
test that starts the command line as a cold child process gives it
child_env(); cli_peak measures such a command's peak memory, or that of
any `python -c` child.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from grouprange import exponential_table


@pytest.fixture(scope="session")
def table40():
    return exponential_table(40)


@pytest.fixture(scope="session")
def table100():
    return exponential_table(100)


@pytest.fixture(scope="session")
def table400():
    return exponential_table(400)


@pytest.fixture(scope="session")
def table1000():
    return exponential_table(1000)


SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(unbuffered: bool = False) -> dict[str, str]:
    """This process's environment for a cold child: no GROUPRANGE_FORMAT,
    PYTHONUNBUFFERED only when ``unbuffered``, and ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    env.pop("GROUPRANGE_FORMAT", None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


_LAUNCHER = ("import os, subprocess, sys\n"
             "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
             "_, status, usage = os.wait4(proc.pid, 0)\n"
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


@pytest.fixture(scope="session")
def cli_peak():
    """Run ``grouprange.cli`` cold, or ``python -c CODE`` when given ``-c``
    and CODE; return its exit code and peak RSS in bytes.

    A small launcher process starts the command and reads its peak with
    wait4: a child started from this process directly would report this
    process's peak too, since Linux carries the peak of the image a
    process replaces at exec into its own.
    """
    env = child_env()

    def peak(*args: str) -> tuple[int, int]:
        argv = [sys.executable, *(args if args[0] == "-c" else ["-m", "grouprange.cli", *args])]
        proc = subprocess.run([sys.executable, "-c", _LAUNCHER, *argv], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        code, peak_kib = map(int, proc.stdout.split())  # ru_maxrss is in KiB on Linux
        return code, peak_kib * 1024

    return peak
