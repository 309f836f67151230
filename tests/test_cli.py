"""Command line surface: table formats, JSON output, SVG writing, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planecone
from planecone.cli import cmd_table, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_csv_rows(capsys):
    code, out, err = run(capsys, ["table", "2", "6"])
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "n,alpha,mu"
    assert lines[1] == "2,1,1"
    assert lines[2] == "3,1,1"
    assert lines[3] == "4,3/2,3/2"
    assert lines[4] == "5,2,2"


def test_table_json_rows(capsys):
    code, out, _ = run(capsys, ["table", "50", "50", "--format", "json"])
    assert code == 0
    assert out.strip() == '{"n":50,"alpha":"17/2","mu":"197/23"}'
    row = json.loads(out)
    assert row["n"] == 50


def test_table_md_rows(capsys):
    code, out, _ = run(capsys, ["table", "96", "96", "--format", "md"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "| n | alpha | mu |"
    assert lines[1] == "| --- | --- | --- |"
    assert lines[2] == "| 96 | 62/5 | 62/5 |"


def test_table_range_validation(capsys):
    code, out, err = run(capsys, ["table", "5", "2"])
    assert code == 2
    assert "error" in err
    code, _, _ = run(capsys, ["table", "1", "4"])
    assert code == 2


def test_cmd_table_function_rejects_bad_format():
    with pytest.raises(ValueError):
        cmd_table(2, 4, "tsv")


def test_slope_text_and_json(capsys):
    code, out, _ = run(capsys, ["slope", "--n", "50"])
    assert code == 0
    assert "mu 197/23" in out
    assert "case NonExceptional" in out
    code, out, _ = run(capsys, ["slope", "--n", "50", "--json"])
    payload = json.loads(out)
    assert payload["mu"] == "197/23"
    assert payload["alpha"] == "17/2"


def test_epsilon_subcommand(capsys):
    code, out, _ = run(capsys, ["epsilon", "--p", "1", "--q", "3", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "5/13"
    assert payload["rank"] == 13


def test_cf_subcommand(capsys):
    code, out, _ = run(capsys, ["cf", "--value", "5/13"])
    assert code == 0
    assert "[0;2,1,1,2]" in out
    assert "palindrome True" in out
    code, out, _ = run(capsys, ["cf", "--value", "4/7", "--json"])
    payload = json.loads(out)
    assert payload["report"]["palindrome"] is False


def test_resolution_subcommand(capsys):
    code, out, _ = run(capsys, ["resolution", "--n", "25"])
    assert code == 0
    assert "case BelowDot" in out
    assert "m1=4 m2=10 m3=3" in out
    assert "E(-6)^3" in out
    code, out, _ = run(capsys, ["resolution", "--n", "1"])
    assert code == 2


def test_walls_subcommand_with_svg(tmp_path, capsys):
    target = tmp_path / "walls.svg"
    code, out, _ = run(
        capsys, ["walls", "--n", "2", "--pairs", "0,1/2", "--svg", str(target)]
    )
    assert code == 0
    assert "center -5/2" in out
    document = target.read_text()
    assert "M -1 0 A 1.5 1.5 0 0 0 -4 0" in document
    # a second render is identical
    code, _, _ = run(
        capsys, ["walls", "--n", "2", "--pairs", "0,1/2", "--svg", str(target)]
    )
    assert target.read_text() == document


def test_walls_unwritable_svg_path_is_one_error_line(tmp_path, capsys):
    # once a FileNotFoundError traceback and exit 1
    target = tmp_path / "missing" / "walls.svg"
    code, out, err = run(capsys, ["walls", "--n", "5", "--svg", str(target)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(target) in err


@pytest.mark.parametrize(
    "command, what", [("resolution", "resolution"), ("walls", "collapsing wall")]
)
@pytest.mark.parametrize("n", ["-1", "0", "1"])
def test_n_below_two_is_one_error_line(capsys, command, what, n):
    code, out, err = run(capsys, [command, "--n", n])
    assert (code, out, err) == (2, "", "error: the %s is computed for n >= 2\n" % what)


@pytest.mark.parametrize(
    "argv", [["cf", "--value", "1/0"], ["walls", "--n", "5", "--pairs", "1/0,1"]]
)
def test_zero_denominator_names_the_text(capsys, argv):
    # once "error: Fraction(1, 0)"
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", "error: invalid rational '1/0': zero denominator\n")


def test_walls_bad_pair_argument(capsys):
    code, _, err = run(capsys, ["walls", "--n", "2", "--pairs", "0:1/2"])
    assert code == 2 and "error" in err


def test_verify_subcommand_exit_codes(capsys):
    code, out, _ = run(capsys, ["verify", "cf", "--depth", "4"])
    assert code == 0
    assert "PASS" in out
    assert "checks passed" in out


def test_verify_all_small_depth(capsys):
    # "all" ignores --depth overrides per suite only when none is given;
    # here the explicit depth keeps the run quick
    code, out, _ = run(capsys, ["verify", "gamma", "--depth", "30"])
    assert code == 0
    assert "FAIL" not in out


def test_epsilon_deep_address_prints_its_interval(capsys):
    # once a RecursionError traceback, then an OverflowError from the float print
    code, out, err = run(capsys, ["epsilon", "--p", "1", "--q", "2000"])
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "address 1/2^2000"
    assert out.splitlines()[-1] == "interval (0.3819660112501051, 0.3819660112501051)"


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_epsilon_too_large_to_print_names_its_address_and_rank_digits(capsys, mode):
    # once "error: Exceeds the limit (4300 digits) for integer string conversion;
    # use sys.set_int_max_str_digits() to increase the limit", in both modes.
    # 349525 is 1010...101 in binary: along a zigzag address the rank grows fast.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < 13774:
        pytest.skip("this interpreter prints every int of 13774 digits")
    code, out, err = run(capsys, ["epsilon", "--p", "349525", "--q", "20", *mode])
    assert code == 2 and out == ""
    message = (
        "error: the slope at address 349525/2^20 is too large to print: its rank has 6887"
        " digits and its invariants up to 13774, over this interpreter's limit of %d digits"
        " per int\n" % limit
    )
    assert err == message
    # four levels up the rank has 1005 digits, and every invariant prints
    code, out, err = run(capsys, ["epsilon", "--p", "21845", "--q", "16", *mode])
    assert code == 0 and err == ""


def test_reader_closing_the_pipe_gets_exit_one_and_no_traceback():
    # `planecone table 2 5000 | head -1` once printed a BrokenPipeError traceback.
    # The table is 81 kB, more than a pipe holds, so the writer is still
    # blocked when the reader closes after one unbuffered line.
    src = str(Path(planecone.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "planecone.cli", "table", "2", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env,
    )
    assert proc.stdout.readline() == b"n,alpha,mu\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""
