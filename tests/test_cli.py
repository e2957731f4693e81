"""End-to-end CLI tests: output content, formats, schema, exit codes.

Each test drives main(argv) in process and inspects stdout/stderr, so
the whole command path runs except the interpreter bootstrap.  The one
exception runs a child process, so that a hang fails on a timeout.
"""

import contextlib
import csv
import errno
import io
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from importlib.resources import files
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from grouprange import Partition, count_admissible, export_table, exponential_table
from grouprange.cli import COMMANDS, UsageError, _parse, _write_json, main

from conftest import child_env
from partition_reference import pentagonal_prefix

SCHEMA = json.loads(files("grouprange").joinpath("schema/output.schema.json").read_text())


@pytest.fixture(autouse=True)
def _clean_format_env(monkeypatch):
    monkeypatch.delenv("GROUPRANGE_FORMAT", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON (RFC 8259)")


def loads_strict(text):
    return json.loads(text, parse_constant=_reject_constant)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    envelope = loads_strict(out)
    jsonschema.validate(envelope, SCHEMA)
    return code, envelope, err


def test_schema_is_itself_valid():
    jsonschema.Draft7Validator.check_schema(SCHEMA)


# --------------------------------------------------------------------- optimal


def test_optimal_text_for_22(capsys):
    code, out, err = run(capsys, "optimal", "22")
    assert code == 0 and err == ""
    assert "method group_relaxation: partition 5,5,4,4,4" in out
    assert "27133/2009" in out
    assert "2009/27133" in out
    assert "2940/27133" in out
    assert "2706/27133" in out


def test_optimal_six_reports_fallback(capsys):
    code, out, err = run(capsys, "optimal", "6")
    assert code == 0
    assert "method dp: partition 3,3" in out
    # the agreement line names the method of each result shown
    code, out, err = run(capsys, "optimal", "6", "--method", "all")
    assert code == 0
    assert out.endswith("agreement (dp/dp/closed_form): objectives equal\n")


def test_optimal_json_all_methods(capsys):
    code, envelope, err = run_json(capsys, "optimal", "10", "--method", "all")
    assert code == 0 and err == ""
    assert envelope["command"] == "optimal"
    payload = envelope["payload"]
    assert payload["n"] == 10
    assert payload["table"] == "exponential"
    methods = [r["method"] for r in payload["results"]]
    assert methods == ["dp", "group_relaxation", "closed_form"]
    for result in payload["results"]:
        assert result["partition"]["parts"] == [5, 5]
        assert result["objective"]["exact"] == "250/41"
    assert payload["agreement"]["objectives_equal"] is True


def test_optimal_json_default_is_cross_checked(capsys):
    code, envelope, err = run_json(capsys, "optimal", "22")
    assert code == 0
    payload = envelope["payload"]
    assert payload["cross_checked"] is True
    assert "agreement" not in payload
    weights = {w["part"]: w["weight"]["exact"] for w in payload["results"][0]["weights"]}
    assert weights == {5: "2940/27133", 4: "2706/27133"}


def test_optimal_csv(capsys):
    code, out, err = run(capsys, "optimal", "9", "--method", "dp", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:3] == ["method", "partition", "objective"]
    assert rows[1][0] == "dp"
    assert rows[1][1] == "5,4"
    assert rows[1][2] == "11086/2009"


def test_optimal_rejects_small_n(capsys):
    code, out, err = run(capsys, "optimal", "1")
    assert code == 2
    assert "n must be >= 2" in err


# ----------------------------------------------------------------------- table


def test_table_text(capsys):
    code, out, err = run(capsys, "table", "2", "12")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2 + 11  # title, header, one row per n
    row9 = next(line for line in lines if line.lstrip().startswith("9 "))
    assert row9.rstrip().endswith("5,4")


def test_table_json(capsys):
    code, envelope, err = run_json(capsys, "table", "4", "8")
    assert code == 0
    rows = envelope["payload"]["rows"]
    assert [r["n"] for r in rows] == [4, 5, 6, 7, 8]
    assert rows[2]["partition"]["parts"] == [3, 3]


def test_table_csv(capsys):
    code, out, err = run(capsys, "table", "2", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 4
    assert rows[1] == ["2", "2", "1", "1.0", "1", "1.0"]


def test_table_rejects_bad_range(capsys):
    assert run(capsys, "table", "1", "5")[0] == 2
    assert run(capsys, "table", "5", "4")[0] == 2


# -------------------------------------------------------------------- simulate


def test_simulate_is_deterministic(capsys):
    argv = ("simulate", "9", "--reps", "2000", "--seed", "7")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "partition 5,4" in out1  # optimal plan is the default


def test_simulate_json(capsys):
    code, envelope, err = run_json(
        capsys, "simulate", "22", "--reps", "5000", "--seed", "42",
        "--partition", "5,5,4,4,4", "--theta", "2.0",
    )
    assert code == 0
    payload = envelope["payload"]
    assert payload["partition"]["parts"] == [5, 5, 4, 4, 4]
    assert payload["replicates"] == 5000
    assert payload["theta"] == 2.0
    assert payload["variance_factor"]["exact"] == "2009/27133"
    assert payload["theoretical_variance"] == pytest.approx(4 * 2009 / 27133)
    assert abs(payload["mean_estimate"] - 2.0) < 6 * payload["mean_std_error"]


def test_simulate_csv_parses(capsys):
    code, out, err = run(
        capsys, "simulate", "4", "--reps", "100", "--seed", "1", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "n"
    assert rows[1][0] == "4"
    assert float(rows[1][6]) > 0  # mean_estimate round trips


def test_simulate_rejects_bad_partition(capsys):
    code, out, err = run(capsys, "simulate", "9", "--partition", "5,3,1")
    assert code == 2
    assert "inadmissible part 1" in err
    code, out, err = run(capsys, "simulate", "9", "--partition", "5,5")
    assert code == 2
    assert "sum to 10" in err


def test_simulate_rejects_bad_parameters(capsys):
    assert run(capsys, "simulate", "9", "--theta", "0")[0] == 2
    assert run(capsys, "simulate", "9", "--reps", "0")[0] == 2
    assert run(capsys, "simulate", "9", "--seed", "-1")[0] == 2


# ---------------------------------------------------------------------- verify


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", "--lemma-max", "50", "--agree-max", "60")
    assert code == 0 and err == ""
    assert "peak ratio: PASS" in out
    assert "solver agreement: PASS" in out
    assert "overall: PASS" in out


def test_verify_json(capsys):
    code, envelope, err = run_json(
        capsys, "verify", "--lemma-max", "40", "--agree-max", "40"
    )
    assert code == 0
    payload = envelope["payload"]
    assert payload["passed"] is True
    assert payload["lemma"]["max_ratio_at"] == 4
    assert payload["lemma"]["tail_bound_start"] == 34
    assert payload["agreement"]["mismatches"] == []
    assert payload["agreement"]["ties"] == []


def test_verify_rejects_short_scan(capsys):
    code, out, err = run(capsys, "verify", "--lemma-max", "33")
    assert code == 2
    assert "--lemma-max must be >= 34" in err


# ----------------------------------------------------------------------- count


def test_count_text(capsys):
    code, out, err = run(capsys, "count", "100")
    assert code == 0
    assert "admissible partitions of 100: 21339417" in out
    code, out, err = run(capsys, "count", "6")
    assert "admissible partitions of 6: 4" in out


def test_count_asymptotic_json(capsys):
    code, envelope, err = run_json(capsys, "count", "100", "--asymptotic")
    assert code == 0
    payload = envelope["payload"]
    assert payload["admissible"] == 21339417
    assert payload["ratio"] == pytest.approx(0.8349, abs=5e-4)


def fraction_ratio(payload):
    """The count over its asymptotic estimate as a quotient of Fractions, rounded once."""
    return float(Fraction(payload["admissible"]) / Fraction(payload["asymptotic"]))


def test_count_ratio_is_the_fraction_quotient_bit_for_bit(monkeypatch, capsys):
    # the CLI divides exact integers, admissible * den / num with the
    # estimate num / den: one correctly rounded division, so the same float
    import grouprange.cli as cli_mod

    p = pentagonal_prefix(3000)  # one prefix serves every count up to 3000
    monkeypatch.setattr(cli_mod, "count_admissible", lambda n: p[n] - p[n - 1])
    for n in range(1, 3001):  # the payload the handler returns, without parsing or rendering
        payload = cli_mod.cmd_count(SimpleNamespace(n=n, asymptotic=True))
        assert payload["admissible"] == p[n] - p[n - 1]
        assert payload["ratio"].hex() == fraction_ratio(payload).hex(), n
    assert payload["admissible"] == count_admissible(3000)
    code, out, err = run(capsys, "count", "1", "--asymptotic", "--format", "json")
    assert json.loads(out)["payload"]["ratio"] == 0.0  # no admissible partition of 1


def test_count_rejects_negative(capsys):
    code, out, err = run(capsys, "count", "-1")
    assert code == 2
    assert "n must be >= 0" in err


def test_count_limit(capsys):
    # the bound itself runs, asymptotics included, and one more exits 2
    # before any counting
    code, envelope, err = run_json(capsys, "count", "50000", "--asymptotic")
    assert code == 0
    assert 0.99 < envelope["payload"]["ratio"] < 1
    assert envelope["payload"]["ratio"].hex() == fraction_ratio(envelope["payload"]).hex()
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "50001", "--asymptotic")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: n must be <= 50000, got 50001\n")


@pytest.mark.parametrize("argv, message", [
    (["optimal", "10001"], "n must be <= 10000 (1000000 with --method closed), got 10001"),
    (["optimal", "10001", "--method", "dp"],
     "n must be <= 10000 (1000000 with --method closed), got 10001"),
    (["table", "2", "5001"], "n_to must be <= 5000, got 5001"),
    (["verify", "--lemma-max", "50001"], "--lemma-max must be <= 50000, got 50001"),
    (["verify", "--agree-max", "5001"], "--agree-max must be <= 5000, got 5001"),
    (["optimal", "1000001", "--method", "closed"],
     "n must be <= 1000000 with --method closed, got 1000001"),
    (["optimal", "100000000000", "--method", "closed"],
     "n must be <= 1000000 with --method closed, got 100000000000"),
    (["simulate", "10001", "--reps", "1"], "n must be <= 10000, got 10001"),
    (["simulate", "2", "--reps", "20000001"], "--reps must be <= 20000000, got 20000001"),
    (["simulate", "10", "--reps", "1000000000000"],
     "--reps must be <= 20000000, got 1000000000000"),
    (["simulate", "1000", "--reps", "500001"],
     "n * --reps must be <= 500000000 draws, got 500001000"),
    # two errors: each option's bounds are checked in turn, --lemma-max first
    (["verify", "--lemma-max", "60000", "--agree-max", "1"],
     "--lemma-max must be <= 50000, got 60000"),
])
def test_size_limits(capsys, argv, message):
    # one past each bound exits 2 before any work, with a message naming it
    start = time.perf_counter()
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert time.perf_counter() - start < 1


def test_optimal_dp_at_the_bound_is_small(cli_peak):
    # the DP keeps (part, multiplicity) pairs per capacity, O(n) state on
    # the exponential table: cold, the bound peaks near 20 MB
    code, peak = cli_peak("optimal", "10000", "--method", "dp")
    assert code == 0
    assert peak < 40e6


def test_size_limits_keep_the_defaults(capsys):
    # verify's defaults and the benchmark's largest sizes run, as do
    # table's bound and the closed form far past optimal's
    for argv in (["verify"], ["verify", "--lemma-max", "500", "--agree-max", "250"],
                 ["optimal", "1000"], ["table", "2", "330"], ["table", "5000", "5000"],
                 ["optimal", "3000", "--method", "closed"], ["simulate", "10000", "--reps", "1"]):
        assert run(capsys, *argv)[0] == 0, argv
    code, out, _ = run(capsys, "optimal", "1000000", "--method", "closed", "--format", "json")
    assert code == 0
    assert json.loads(out)["payload"]["results"][0]["partition"]["frequencies"] == {"4": 250000}


# ---------------------------------------------------------------- custom table


def test_custom_table_round_trip(tmp_path, capsys):
    path = tmp_path / "expo.csv"
    path.write_bytes(export_table(exponential_table(12)))
    code, envelope, err = run_json(capsys, "optimal", "10", "--table", str(path))
    assert code == 0
    payload = envelope["payload"]
    assert payload["table"] == "expo.csv"
    assert payload["results"][0]["partition"]["parts"] == [5, 5]
    # saved as "CSV UTF-8" by a spreadsheet tool: a leading byte-order mark
    path.write_bytes(b"\xef\xbb\xbf" + export_table(exponential_table(12)))
    assert run_json(capsys, "optimal", "10", "--table", str(path)) == (code, envelope, err)


def test_custom_table_all_skips_closed_form(tmp_path, capsys):
    path = tmp_path / "expo.csv"
    path.write_bytes(export_table(exponential_table(12)))
    code, envelope, err = run_json(
        capsys, "optimal", "10", "--table", str(path), "--method", "all"
    )
    assert code == 0
    assert envelope["payload"]["agreement"]["methods"] == ["dp", "group_relaxation"]


def test_custom_table_refuses_closed_form(tmp_path, capsys):
    path = tmp_path / "expo.csv"
    path.write_bytes(export_table(exponential_table(12)))
    code, out, err = run(capsys, "optimal", "10", "--table", str(path), "--method", "closed")
    assert code == 2
    assert "closed-form" in err


def test_tied_optima_show_each_solvers_maximizer(tmp_path, capsys):
    # C_j = j/2: the DP takes the fewest parts, the relaxation the smallest best part
    path = tmp_path / "tied.csv"
    path.write_text("j,d,k_sq\n" + "".join(f"{j},{j},{2 * j}\n" for j in range(2, 12)))
    code, out, err = run(capsys, "optimal", "11", "--table", str(path), "--method", "all")
    assert (code, err) == (0, "")
    assert "method dp: partition 11\n" in out
    assert "method group_relaxation: partition 3,2,2,2,2\n" in out
    assert out.endswith("agreement (dp/group_relaxation): objectives equal\n")


def test_custom_table_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("j,d,k_sq\n2,1,0\n")
    code, out, err = run(capsys, "optimal", "4", "--table", str(bad))
    assert code == 3
    assert "bad coefficient table" in err and "row 2" in err

    code, out, err = run(capsys, "optimal", "4", "--table", str(tmp_path / "missing.csv"))
    assert code == 3
    assert "cannot read table file" in err

    short = tmp_path / "short.csv"
    short.write_bytes(export_table(exponential_table(8)))
    code, out, err = run(capsys, "optimal", "10", "--table", str(short))
    assert code == 3
    assert "covers parts 2..8" in err

    # an unknown fourth column, or a row wider than its header, is refused
    for text, message in [
        ("j,d,k_sq,zzz\n2,1,1\n3,3/2,5/4,7,8,9\n", "row 1: bad header 'j,d,k_sq,zzz'"),
        ("j,d,k_sq\n2,1,1\n3,3/2,5/4,7,8,9\n", "row 3: expected 3 columns, got 6"),
    ]:
        wide = tmp_path / "wide.csv"
        wide.write_text(text)
        code, out, err = run(capsys, "optimal", "3", "--table", str(wide))
        assert (code, out) == (3, "")
        assert err.startswith(f"error: bad coefficient table: {message}")


def test_table_file_is_read_up_to_its_bound(tmp_path, capsys, monkeypatch):
    # a file at the bound loads; one byte more, or an endless device,
    # exits 3 with one line after reading at most bound + 1 bytes
    monkeypatch.setattr("grouprange.cli.TABLE_BYTES_MAX", 200)
    text = export_table(exponential_table(4))
    at_bound, past = tmp_path / "at.csv", tmp_path / "past.csv"
    at_bound.write_bytes(text + b"\n" * (200 - len(text)))
    past.write_bytes(text + b"\n" * (201 - len(text)))
    assert run(capsys, "optimal", "4", "--table", str(at_bound))[0] == 0
    for path in (past, "/dev/zero"):
        code, out, err = run(capsys, "optimal", "3", "--table", str(path))
        assert (code, out, err) == (3, "", "error: table file is longer than 200 bytes\n")


def test_table_file_is_parsed_up_to_part_n(tmp_path, capsys):
    # optimal n reads parts 2..n: rows past n are not parsed, so neither
    # their faults nor their number cost anything
    table = tmp_path / "t.csv"
    table.write_bytes(export_table(exponential_table(4)))
    clean = run(capsys, "optimal", "4", "--table", str(table))
    table.write_bytes(export_table(exponential_table(4)) + b"5,x,1\n" * 100_000)
    assert run(capsys, "optimal", "4", "--table", str(table)) == clean
    code, out, err = run(capsys, "optimal", "5", "--table", str(table))
    assert (code, out) == (3, "")
    assert err == "error: bad coefficient table: row 5: cannot parse d value 'x' as a rational\n"


def test_table_field_past_the_csv_limit_exits_3(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text("j,d,k_sq\n2,1,1\n3," + "1" * 200_000 + ",1\n")
    code, out, err = run(capsys, "optimal", "3", "--table", str(big))
    assert (code, out) == (3, "")
    assert err.startswith("error: bad coefficient table: row 3: field larger than field limit")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_custom_table_value_errors_exit_3(tmp_path, capsys, fmt):
    # a value outside [1e-50, 1e50] and bytes that are not UTF-8 are
    # table errors with a row number, not tracebacks
    huge = tmp_path / "huge.csv"
    huge.write_text("j,d,k_sq\n2,1e3000,1\n3,1,1\n4,1,1\n")
    code, out, err = run(capsys, "optimal", "4", "--table", str(huge), "--format", fmt)
    assert (code, out) == (3, "")
    assert "row 2: expected range d outside [1e-50, 1e50]" in err

    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"j,d,k_sq\n2,1,\xff\n")
    code, out, err = run(capsys, "optimal", "3", "--table", str(latin), "--format", fmt)
    assert (code, out) == (3, "")
    assert "bad coefficient table: row 2: not valid UTF-8" in err


@pytest.mark.parametrize("row, name", [
    ("2,1e999999999,1", "expected range d"),
    ("2,1,1e-999999999", "variance k_sq"),
    ("2,-1e999999999,1", "expected range d"),
])
def test_huge_decimal_exponent_fails_fast(tmp_path, row, name):
    # run in a child with a timeout, so that building the exact value
    # (hours and gigabytes for these rows) fails the test instead of hanging it
    table = tmp_path / "far.csv"
    table.write_text(f"j,d,k_sq\n{row}\n3,1,1\n")
    proc = subprocess.run([sys.executable, "-m", "grouprange.cli", "optimal", "3", "--table",
                           str(table)], env=child_env(), capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"error: bad coefficient table: row 2: {name} outside [1e-50, 1e50]\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_over_long_exact_result_exits_3(tmp_path, capsys, fmt):
    # d has 4,001 digits, so C = d**2 / k_sq passes the interpreter's
    # 4,300-digit limit for printing an int; nothing is half-printed
    table = tmp_path / "long.csv"
    table.write_text("j,d,k_sq\n2,1." + "0" * 3999 + "1,1\n3,1,1\n4,1,1\n")
    code, out, err = run(capsys, "optimal", "4", "--table", str(table), "--format", fmt)
    assert (code, out) == (3, "")
    assert err.startswith("error: cannot print an exact value of the result: ")
    assert "integer string conversion" in err and err.count("\n") == 1


def test_simulate_over_long_exact_result_exits_3(capsys):
    # the variance factor is checked before the draws (29 s of them), by the
    # check every payload passes before it is written
    spec = ",".join(map(str, range(2, 141)))
    start = time.perf_counter()
    code, out, err = run(capsys, "simulate", "9869", "--reps", "50663", "--partition", spec)
    assert time.perf_counter() - start < 5
    assert (code, out) == (3, "")
    assert err.startswith("error: cannot print an exact value of the result: ")
    assert "integer string conversion" in err and err.count("\n") == 1


def test_partition_is_json_encoded_by_the_hook():
    # a tuple subclass would be written as an array without reaching the writer's Partition case
    written = []
    _write_json(Partition.from_parts([5, 4, 4]), written.append)
    assert "".join(written) == json.dumps(
        {"n": 13, "parts": [5, 4, 4], "frequencies": {"4": 2, "5": 1}}, indent=2)


def test_json_writer_slices_a_long_run_of_parts():
    # optimal 1000000 --method closed: one run of 250,000 parts, 3.75 MB whole
    written = []
    partition = Partition.from_frequencies({4: 250_000})
    _write_json(partition, written.append)
    assert max(map(len, written)) <= 1 << 15
    assert "".join(written) == json_dump(partition)


def json_dump_hook(x):
    """The ``default`` hook of the ``json.dump`` the writer replaced."""
    if isinstance(x, Fraction):
        return {"exact": str(x), "float": float(x)}
    if isinstance(x, Partition):
        return {"n": x.n, "parts": list(x.parts), "frequencies": {str(j): m for j, m in x.frequencies}}
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def json_dump(value):
    out = io.StringIO()
    json.dump(value, out, indent=2, default=json_dump_hook)
    return out.getvalue()


@pytest.mark.parametrize("line", [
    "table 2 400",
    "optimal 10000 --method all",
    "verify",
    "simulate 22 --reps 3000 --seed 5 --theta 2.5",
    "count 50000 --asymptotic",
    "optimal 10 --table NAME",
])
def test_json_writer_matches_json_dump(line, tmp_path, monkeypatch, capsys):
    # byte for byte, on every command's payload and on a --table name that needs escaping
    import grouprange.cli as cli_mod

    name = tmp_path / 'a "quote", a \\ backslash, \u00e4 and \x01.csv'
    name.write_bytes(export_table(exponential_table(12)))
    envelopes = []
    real = cli_mod._write_json

    def recording(value, write, *pad):  # the writer recurses through this too
        envelopes.append(value)
        real(value, write, *pad)

    monkeypatch.setattr(cli_mod, "_write_json", recording)
    argv = [str(name) if word == "NAME" else word for word in shlex.split(line)]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json_dump(envelopes[0]) + "\n"
    if "--table" in argv:
        assert json.loads(out)["payload"]["table"] == name.name


def test_json_writer_matches_json_dump_on_edge_values():
    values = [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 2**70, None, True, False,
              "", "tab\there", "\u20ac\U0001f600", [], {}, (), [[]], {"a": {}}, (1, [2.5])]
    written = []
    _write_json(values, written.append)
    assert "".join(written) == json_dump(values)


# Live oracle: json.dump(indent=2), which the writer replaced, on generated values
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.fractions()
    | st.lists(st.integers(2, 9), min_size=1, max_size=8).map(Partition.from_parts),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=10)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dump_on_generated_values(value):
    written = []
    _write_json(value, written.append)
    assert "".join(written) == json_dump(value)


def test_json_writer_rejects_a_value_of_no_json_type():
    class Unwritable:
        pass

    # a TypeError that names the type, as json.dumps raises
    for dump in (json.dumps, lambda x: _write_json(x, [].append)):
        with pytest.raises(TypeError, match="Unwritable is not JSON serializable"):
            dump({"payload": [Unwritable()]})


# -------------------------------------------------------------------- plumbing


def test_format_env_default(monkeypatch, capsys):
    monkeypatch.setenv("GROUPRANGE_FORMAT", "json")
    code, out, err = run(capsys, "count", "6")
    envelope = loads_strict(out)
    assert code == 0
    assert envelope["format"] == "json"


def test_format_flag_overrides_env(monkeypatch, capsys):
    monkeypatch.setenv("GROUPRANGE_FORMAT", "json")
    code, out, err = run(capsys, "count", "6", "--format", "text")
    assert code == 0
    assert out.startswith("admissible partitions")


def test_format_env_invalid(monkeypatch, capsys):
    monkeypatch.setenv("GROUPRANGE_FORMAT", "yaml")
    code, out, err = run(capsys, "count", "6")
    assert code == 2
    assert "not a valid format" in err


@pytest.mark.parametrize("argv", [["count", "0"], ["--help"]])
def test_stdout_that_refuses_output(monkeypatch, capsys, argv):
    # a full disk is exit 1 with one error line; a closed pipe is the
    # command's own code with no line, for a command's output and for help
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    for error, expected in [(full, (1, "", f"error: cannot write output: {full}\n")),
                            (BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), (0, "", ""))]:
        def write(text, error=error):
            raise error
        monkeypatch.setattr(sys.stdout, "write", write)
        assert run(capsys, *argv) == expected


def test_unreadable_table_is_an_input_error(tmp_path, capsys):
    # a table read's OSError is an input error, not a failed write of the output
    for directory in (tmp_path, "/"):
        code, out, err = run(capsys, "optimal", "3", "--table", str(directory))
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot read table file: ") and err.count("\n") == 1


def test_usage_exit_codes(capsys):
    assert run(capsys)[0] == 2  # no command
    assert run(capsys, "frobnicate")[0] == 2  # unknown command
    assert run(capsys, "optimal")[0] == 2  # missing n


# Command lines and the values they parse to; every row was first checked
# against the argparse parser the declarative one replaced
PARSE_DEFAULTS = {
    "optimal": {"method": "gr", "table": None, "format": "text"},
    "table": {"format": "text"},
    "simulate": {"theta": 1.0, "reps": 100_000, "seed": 0, "partition": None, "format": "text"},
    "verify": {"lemma_max": 1000, "agree_max": 400, "format": "text"},
    "count": {"asymptotic": False, "format": "text"},
}
PARSED = [
    ("count 5", {"n": 5}),
    ("count 5 --asymptotic --format=json", {"n": 5, "asymptotic": True, "format": "json"}),
    ("count --asym 5 --form=csv", {"n": 5, "asymptotic": True, "format": "csv"}),
    ("count 5 --format json --format csv", {"n": 5, "format": "csv"}),
    ("count -1", {"n": -1}),
    ("count -- -1", {"n": -1}),
    ("count 5 --", {"n": 5}),
    ("count +7", {"n": 7}),
    ("count 5_0", {"n": 50}),
    ("optimal 22 --method=dp", {"n": 22, "method": "dp"}),
    ("optimal --method all 22 --table t.csv", {"n": 22, "method": "all", "table": "t.csv"}),
    ("optimal 22 --meth closed --method dp", {"n": 22, "method": "dp"}),
    ("optimal 22 --tab -", {"n": 22, "table": "-"}),
    ("optimal 22 --table=a=b", {"n": 22, "table": "a=b"}),
    ("table --format json 2 5", {"n_from": 2, "n_to": 5, "format": "json"}),
    ("table 2 --format json 5", {"n_from": 2, "n_to": 5, "format": "json"}),
    ("table 2 -- 5", {"n_from": 2, "n_to": 5}),
    ("simulate 10 --seed -1 --theta -1", {"n": 10, "seed": -1, "theta": -1.0}),
    ("simulate 10 --theta=-.5 --reps 7 --part 4,3,3 --seed=3",
     {"n": 10, "theta": -0.5, "reps": 7, "partition": "4,3,3", "seed": 3}),
    ("simulate --theta 1e3 10", {"n": 10, "theta": 1000.0}),
    ("verify", {}),
    ("verify --lemma 50 --agree-max=60", {"lemma_max": 50, "agree_max": 60}),
    ("verify --lemma-max 50 --lemma 70", {"lemma_max": 70}),
]


@pytest.mark.parametrize("line, given", PARSED, ids=[line for line, _ in PARSED])
def test_parser_parity(line, given):
    argv = shlex.split(line)
    command = argv[0]
    args = vars(_parse(argv))
    assert args.pop("func") is COMMANDS[command][0]
    assert args == {"command": command, **PARSE_DEFAULTS[command], **given}


USAGE_ERRORS = [
    "",  # no command
    "frobnicate",
    "--format json count 5",  # an option of a command before it
    "optimal",
    "table 2",
    "count 5 6",
    "verify 7",
    "count x",
    "count 5.0",
    "simulate 10 --theta x",
    "optimal 5 --method fast",
    "count 5 --format yaml",
    "count 5 --bogus",
    "count 5 --asymptotic=yes",
    "count 5 --=x",  # names every option
    "optimal 5 --table",
    "optimal 5 --method --format json",
    "simulate 10 --seed --",
    "simulate 10 --partition -5,5",
    "-h5 --help",  # -h given the value 5, as argparse reads it
    "count 5 -h5 --help",
    "count 5 -hx",
]


@pytest.mark.parametrize("line", USAGE_ERRORS, ids=lambda line: line or "(nothing)")
def test_usage_error_is_one_line(capsys, line):
    code, out, err = run(capsys, *shlex.split(line))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_short_help_takes_no_value(capsys):
    # argparse reads -h5 as -h given 5, which it refuses, and -hh as -h -h
    assert run(capsys, "count", "5", "-h5", "--help") == (
        2, "", "error: argument -h/--help: ignored explicit argument '5'\n")
    for argv in (["-hh"], ["count", "-hhh"], ["count", "-h=h"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: grouprange "), argv


# Live oracle: the argparse parser COMMANDS declares, which the CLI's own
# parser replaced, reads generated command lines to the same exit code and
# values.  A '--' is generated once, after the command and before another
# argument: argparse takes one before the command as the command, and
# reports a last one as unrecognized when no positional is left to take it.


@pytest.fixture(scope="module")
def argparse_parser():
    import argparse

    parser = argparse.ArgumentParser(prog="grouprange")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, about, spec, *_) in COMMANDS.items():
        sub = commands.add_parser(command, help=about)
        for name, (kind, default, text) in spec.items():
            if kind is bool:
                sub.add_argument(name, action="store_true", help=text)
            elif name[0] != "-":
                sub.add_argument(name, type=kind, help=text)
            elif isinstance(kind, tuple):
                sub.add_argument(name, choices=kind, default=default, help=text)
            else:
                sub.add_argument(name, type=kind, default=default, help=text)
    return parser


def argparse_reads(parser, argv):
    """(exit code, values) as argparse reads ``argv``; no values for help or an error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = vars(parser.parse_args(argv))
        except SystemExit as exc:
            return exc.code, None
    return 0, {**args, "format": args["format"] or "text"}


def parse_reads(argv):
    """(exit code, values) as ``_parse`` reads ``argv``."""
    try:
        args = _parse(argv)
    except UsageError:
        return 2, None
    if isinstance(args, str):
        return 0, None
    args = vars(args)
    assert args.pop("func") is COMMANDS[args["command"]][0]
    return 0, args


# Each argument's values by its type, and stray tokens: a malformed value, any
# option in full or as a prefix, maybe with =value, and -h with a value attached
VALUES = {int: ["5", "22", "-1", "+7", "5_0", " 5", "0"], float: ["1.0", "-.5", "1e3", "-1"],
          str: ["t.csv", "-", "4,3", "a=b", "-5,5"]}
OPTIONS = sorted({name for _, _, spec, *_ in COMMANDS.values() for name in spec if name[0] == "-"}
                 | {"--help"})
_value = st.sampled_from(sorted(set().union(*VALUES.values(), ["x", "-1.", "yaml", "all"])))
_stray = (st.builds(lambda name, cut, tail: name[:cut] + tail, st.sampled_from(OPTIONS),
                    st.integers(2, 20), st.just("") | _value.map("={}".format)).filter("--".__ne__)
          | st.sampled_from(["", "h", "hh", "5", "x", "h5", "hx", " ", "=5", "=h", "==5"])
          .map("-h{}".format)
          | _value)


@st.composite
def command_lines(draw):
    """A command's positionals and some of its options, each long option in full
    or as a prefix and its value apart or after '=', in any order, among stray
    tokens, with at most one '--' after the command and before another argument."""
    command = draw(st.sampled_from([*COMMANDS, "frobnicate"]))
    pieces = []
    for name, (kind, _, _) in COMMANDS.get(command, (None, None, {}))[2].items():
        value = draw(st.sampled_from(kind if isinstance(kind, tuple) else VALUES.get(kind, [""])))
        if name[0] != "-":
            pieces.append([value])
        elif draw(st.booleans()):
            written = name[:draw(st.integers(3, len(name)))]
            pieces.append([written] if kind is bool else
                          [f"{written}={value}"] if draw(st.booleans()) else [written, value])
    rest = [token for piece in draw(st.permutations(pieces)) for token in piece]
    for token in draw(st.lists(_stray, max_size=1)):
        rest.insert(draw(st.integers(0, len(rest))), token)
    if rest and draw(st.booleans()):
        rest.insert(draw(st.integers(0, len(rest) - 1)), "--")
    before = [draw(_stray)] if draw(st.integers(0, 3)) == 0 else []
    return [*before, command, *rest]


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="argparse 3.13 shows help for -h5, which earlier versions refuse")
@settings(max_examples=250, derandomize=True, deadline=None)
@given(command_lines())
@example(["count", "--help", "--=x"])  # argparse reads every option before it shows help
@example(["count", "--help", "--", "--=x"])
@example(["count", "5", "-hh"])
def test_parser_matches_argparse(argparse_parser, argv):
    assert parse_reads(argv) == argparse_reads(argparse_parser, argv)


# Each --help's usage line and the rows it must hold, in order; every
# declared argument's row ends with its help text
HELP_USAGE = {
    None: "usage: grouprange {optimal,table,simulate,verify,count} ...",
    "optimal": "usage: grouprange optimal n [--method {dp,gr,closed,all}] [--table TABLE] "
               "[--format {text,json,csv}]",
    "table": "usage: grouprange table n_from n_to [--format {text,json,csv}]",
    "simulate": "usage: grouprange simulate n [--theta THETA] [--reps REPS] [--seed SEED] "
                "[--partition PARTITION] [--format {text,json,csv}]",
    "verify": "usage: grouprange verify [--lemma-max LEMMA-MAX] [--agree-max AGREE-MAX] "
              "[--format {text,json,csv}]",
    "count": "usage: grouprange count n [--asymptotic] [--format {text,json,csv}]",
}
FORMAT_ROW = "  --format {text,json,csv}     output format (default: $GROUPRANGE_FORMAT or text)"
HELP_ROWS = {
    "optimal": ["  --method {dp,gr,closed,all}  solver (default: group relaxation with dp "
                "cross-check)"],
    "simulate": ["  --theta THETA                true scale (default 1.0)"],
    "count": ["  --asymptotic                 include the asymptotic estimate and the "
              "exact/asymptotic ratio"],
}


@pytest.mark.parametrize("command", HELP_USAGE, ids=lambda command: command or "(program)")
def test_help_renders_every_declared_argument(capsys, command):
    assert list(HELP_USAGE)[1:] == list(COMMANDS)
    code, out, err = run(capsys, *([] if command is None else [command]), "--help")
    assert (code, err) == (0, "")
    usage, blank, about, blank_too, *rows = out.splitlines()
    assert usage == HELP_USAGE[command] and blank == blank_too == ""
    if command is None:
        assert about == ("Minimum-variance unbiased weighted-range estimation "
                         "of an exponential scale parameter.")
        declared = [(name, spec[1]) for name, spec in COMMANDS.items()]
    else:
        assert about == COMMANDS[command][1]
        declared = [(name, text) for name, (_, _, text) in COMMANDS[command][2].items()]
    declared.append(("-h, --help", "show this help and exit"))
    assert len(rows) == len(declared)
    for row, (name, text) in zip(rows, declared):
        assert row.startswith(f"  {name}") and row.endswith(f" {text}"), row
    for row in HELP_ROWS.get(command, []) + [FORMAT_ROW] * (command is not None):
        assert row in rows


@pytest.fixture()
def lying_dp(monkeypatch):
    # unreachable with correct solvers; inject a wrong dp objective to
    # prove a cross-check miss is rendered and exits 4; `optimal` and
    # `verify` look solve_dp up in the optimizer as they run, so the
    # patch goes there
    import grouprange.optimizer as optimizer_mod

    real = optimizer_mod.solve_dp

    def lying_dp(n, table):
        result = real(n, table)
        return type(result)(result.partition, result.objective + 1, result.method)

    monkeypatch.setattr(optimizer_mod, "solve_dp", lying_dp)


@pytest.mark.usefixtures("lying_dp")
def test_solver_disagreement_exits_4(capsys):
    code, out, err = run(capsys, "optimal", "10")
    assert code == 4
    assert "disagree" in err

    code, out, err = run(capsys, "optimal", "10", "--method", "all", "--format", "json")
    assert code == 4
    envelope = loads_strict(out)
    jsonschema.validate(envelope, SCHEMA)
    assert envelope["payload"]["agreement"]["objectives_equal"] is False


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_failed_verification_shows_its_payload_and_exits_4(monkeypatch, capsys, fmt):
    # unreachable with correct solvers: a closed form worse at one n of the
    # sweep fails the agreement check, and the payload still prints
    import grouprange.optimizer as optimizer_mod

    real = optimizer_mod.rule_of_fours
    monkeypatch.setattr(optimizer_mod, "rule_of_fours",
                        lambda n: Partition.from_parts([2] * 5) if n == 10 else real(n))
    code, out, err = run(capsys, "verify", "--lemma-max", "40", "--agree-max", "30",
                         "--format", fmt)
    assert code == 4
    assert err.endswith("error: verification failed\n") and err.count("\n") == 1
    if fmt == "json":
        envelope = loads_strict(out)
        jsonschema.validate(envelope, SCHEMA)
        payload = envelope["payload"]
        assert payload["agreement"]["mismatches"] == [10]
        assert payload["agreement"]["objectives_equal"] is False
        assert payload["passed"] is False
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[2] == ["solver_agreement", "FAIL", "n=2..30 mismatches=1 ties=0"]
        assert rows[3] == ["overall", "FAIL", ""]
    else:
        assert "solver agreement: FAIL" in out and "1 mismatches" in out
        assert out.endswith("overall: FAIL\n")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_partition_tie_passes_verification(monkeypatch, capsys, fmt):
    # unreachable on the exponential table, whose optima are unique: a closed
    # form that answers another partition with the DP's objective at n = 10
    # is a tie, recorded and shown, not a failure
    import grouprange.optimizer as optimizer_mod

    real = optimizer_mod.solve_closed_form

    def tied(n, table):
        result = real(n, table)
        if n != 10:
            return result
        assert result.partition.parts == (5, 5)
        return result._replace(partition=Partition.from_parts([4, 3, 3]))

    monkeypatch.setattr(optimizer_mod, "solve_closed_form", tied)
    code, out, err = run(capsys, "verify", "--lemma-max", "40", "--agree-max", "30",
                         "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        envelope = loads_strict(out)
        jsonschema.validate(envelope, SCHEMA)
        payload = envelope["payload"]
        assert payload["agreement"]["ties"] == [10]
        assert payload["agreement"]["mismatches"] == []
        assert payload["agreement"]["objectives_equal"] is True
        assert payload["passed"] is True
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[2] == ["solver_agreement", "PASS", "n=2..30 mismatches=0 ties=1"]
        assert rows[3] == ["overall", "PASS", ""]
    else:
        assert "solver agreement: PASS" in out and "0 mismatches, 1 partition ties" in out
        assert out.endswith("overall: PASS\n")


_FULL = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
_PIPE = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
_OPTIMAL = ["optimal", "22"]
_VERIFY = ["verify", "--lemma-max", "40", "--agree-max", "30"]


@pytest.mark.usefixtures("lying_dp")
@pytest.mark.parametrize("argv, error, expected", [
    (_OPTIMAL, _PIPE, (4, "", "error: solver objectives disagree\n")),
    (_OPTIMAL, _FULL,
     (1, "", f"error: cannot write output: {_FULL}\nerror: solver objectives disagree\n")),
    (_VERIFY, _PIPE, (4, "", "error: verification failed\n")),
    (_VERIFY, _FULL,
     (1, "", f"error: cannot write output: {_FULL}\nerror: verification failed\n")),
], ids=["closed pipe", "full disk", "verify, closed pipe", "verify, full disk"])
def test_failed_check_survives_a_stdout_that_refuses_output(monkeypatch, capsys, argv, error,
                                                            expected):
    # the check's error line follows the output, written or not; a closed
    # pipe keeps exit 4, a full disk is exit 1 with both lines
    def write(text):
        raise error
    monkeypatch.setattr(sys.stdout, "write", write)
    assert run(capsys, *argv) == expected


def test_stdout_that_fails_mid_stream(monkeypatch, capsys):
    # the output is written as it renders, one csv row per write, so the rows before
    # the failed write are out: a full disk is still exit 1 with one error line, and
    # a closed pipe exit 0 with none
    argv = ["table", "2", "400", "--format", "csv"]
    rows = run(capsys, *argv)[1].splitlines(keepends=True)
    real = sys.stdout.write
    for error, code, err in [(_FULL, 1, f"error: cannot write output: {_FULL}\n"), (_PIPE, 0, "")]:
        calls = []

        def write(text, error=error, calls=calls):
            calls.append(text)
            if len(calls) == 3:
                raise error
            return real(text)
        monkeypatch.setattr(sys.stdout, "write", write)
        assert run(capsys, *argv) == (code, "".join(rows[:2]), err)
