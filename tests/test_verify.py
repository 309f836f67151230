"""The self-check suites: dispatch, reporting, and small-depth runs."""

import pytest

from planecone.cli import main
from planecone.verify import CheckResult, format_report, run_suite


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_single_suite_small_depth():
    results = run_suite("gamma", 25)
    assert all(isinstance(r, CheckResult) for r in results)
    assert all(r.passed for r in results)


def test_all_runs_every_suite():
    results = run_suite("all", 6)
    names = {r.name for r in results}
    assert "gamma inversion" in names
    assert "interval disjointness" in names
    assert "collapsing walls" in names
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_format_report_lines_and_exit_code():
    results = [
        CheckResult("first", True, "10 checks"),
        CheckResult("second", False, "1 of 3 failed"),
    ]
    text, code = format_report(results)
    assert code == 1
    lines = text.splitlines()
    assert lines[0].startswith("PASS first")
    assert lines[1].startswith("FAIL second")
    assert lines[-1] == "1/2 checks passed"
    _, ok_code = format_report([CheckResult("only", True, "")])
    assert ok_code == 0


@pytest.mark.parametrize("suite, depth", [("walls", 0), ("gamma", -5), ("cf", -1)])
def test_depth_below_one_rejected(capsys, suite, depth):
    # once "PASS collapsing walls (-1 checks)", "-5 checks" and "negative shift count"
    with pytest.raises(ValueError, match="depth must be at least 1"):
        run_suite(suite, depth)
    assert main(["verify", suite, "--depth", str(depth)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_walls_triad_levels_follow_depth():
    # once 1146 triad checks at every depth, so --depth 1 passed on the default triads
    details = {r.name: r.detail for r in run_suite("walls", 3)}
    assert details == {
        "collapsing walls": "2 checks",
        "pair wall radius bound": "14 checks",
        "center ratio estimates": "7 checks",
        "pair wall nesting": "7 checks",
        "chain radius growth": "7 checks",
        "triad character balances": "7 checks",
    }
    counts = [r.detail for r in run_suite("walls", 8)][1:]
    assert counts == ["510 checks", "255 checks", "255 checks", "63 checks", "63 checks"]


@pytest.mark.parametrize("suite", ["resolution", "kronecker", "walls", "all"])
def test_suites_over_n_from_two_reject_depth_one(capsys, suite):
    # once "PASS ... (0 checks)": n = 2..1 is empty
    with pytest.raises(ValueError, match="depth must be at least 2"):
        run_suite(suite, 1)
    assert main(["verify", suite, "--depth", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
