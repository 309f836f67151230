"""Command line surface: table formats, JSON output, SVG writing, exit codes."""

import json

import pytest

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


def test_epsilon_deep_address_reports_float_overflow(capsys):
    # once a RecursionError traceback; the slope builds, only its float print overflows
    code, out, err = run(capsys, ["epsilon", "--p", "1", "--q", "2000"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
