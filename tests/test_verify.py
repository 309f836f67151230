"""The self-check suites: dispatch, reporting, and small-depth runs."""

import pytest

import planecone.exceptional as exceptional
import planecone.verify as verify
from planecone.bridgeland import TriadSlopes, Wall, exceptional_pair_wall
from planecone.cli import main
from planecone.exceptional import epsilon
from planecone.verify import CheckResult, format_report, run_suite

import counting


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


def test_intervals_at_the_default_depth(capsys):
    # every pair of the 769 slopes of depth <= 8 in [0, 3], compared in integers
    assert main(["verify", "intervals"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "PASS interval disjointness (295296 checks)",
        "1/1 checks passed",
    ]


def test_intervals_reports_an_overlap(monkeypatch):
    # a slope listed twice meets its own interval, so the check can fail
    slope = epsilon(0)
    monkeypatch.setattr(verify, "enumerate_slopes", lambda depth, lo, hi: [slope, slope])
    [result] = run_suite("intervals", 1)
    assert not result.passed
    assert result.detail == "1/1 failed, first: overlap I_0 and I_0"


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
    # once 1146 triad checks at every depth, so --depth 1 passed on the default triads;
    # the triads go to level PAIR_DEPTH = 8, the chains and balances to CHAIN_LENGTH = 6
    for depth in range(2, 10):
        triads = (1 << min(depth, 8)) - 1
        chains = (1 << min(depth, 6)) - 1
        details = {r.name: r.detail for r in run_suite("walls", depth)}
        assert details == {
            "collapsing walls": "%d checks" % (depth - 1),
            "pair wall radius bound": "%d checks" % (2 * triads),
            "center ratio estimates": "%d checks" % triads,
            "pair wall nesting": "%d checks" % triads,
            "chain radius growth": "%d checks" % chains,
            "triad character balances": "%d checks" % chains,
        }, depth


@pytest.mark.parametrize("depth, built", [(3, 38), (8, 830), (9, 830)])
def test_walls_build_each_pair_wall_of_a_triad_once(monkeypatch, depth, built):
    # once 84 and 1908: the chain rebuilt W(alpha, beta) and W(alpha, alpha.beta),
    # and the nesting check rebuilt W(beta, eta); then 56 and 1272, one per ordered
    # use, with neighbouring triads and chains still building a shared wall again;
    # then one per distinct pair and round, and now one per distinct pair, kept on
    # its slope, so a second round builds none.  The empty slope memo holds no
    # kept wall.
    monkeypatch.setattr(exceptional, "_MEMO", {})
    calls = counting.pair_walls(monkeypatch.setattr)
    run_suite("walls", depth)
    assert len(calls) == built
    assert len({frozenset((x.address, y.address)) for x, y in calls}) == built
    calls.clear()
    run_suite("walls", depth)
    assert calls == []


def test_walls_failures_report_in_triad_order(monkeypatch):
    """Break two nestings, two chains and two balances; each report line names the first in triad order.

    The expected lines were recorded when the suite still walked the triads in
    three loops.  A nesting is broken by its inner wall and reference slope,
    because different triads can share a wall.
    """
    left_nestings = [
        (exceptional_pair_wall(epsilon((p, q)), epsilon((p + 1, q))), epsilon((p, q)).value)
        for p, q in ((4, 5), (2, 3))
    ]
    # the last links of the chains at p = 0 and p = 6 on level 6; no other check reaches level 11
    last_links = {epsilon((1, 11)).value, epsilon((193, 11)).value}
    nested, pair_wall, triad = (
        verify.nested, verify.exceptional_pair_wall, verify.kernel_cokernel_slopes
    )

    def broken_nested(inner, outer, ref):
        return (inner, ref) not in left_nestings and nested(inner, outer, ref)

    def broken_wall(alpha, beta):
        wall = pair_wall(alpha, beta)
        return Wall.semicircle(wall.center_s, 2) if beta.value in last_links else wall

    def broken_triad(p, q):
        o = triad(p, q)
        if (p, q) not in ((2, 4), (0, 2)):
            return o
        return TriadSlopes(
            o.p, o.q, o.branch, o.zeta, o.alpha, o.beta, o.eta, o.omega,
            o.hom_alpha_beta, o.hom_beta_eta, False, o.balance_second,
        )

    counting.nestings(monkeypatch.setattr, call=broken_nested)
    monkeypatch.setattr(verify, "exceptional_pair_wall", broken_wall)
    monkeypatch.setattr(verify, "kernel_cokernel_slopes", broken_triad)
    text, code = format_report(run_suite("walls", 8))
    assert code == 1
    assert text.splitlines() == [
        "PASS collapsing walls (7 checks)",
        "PASS pair wall radius bound (510 checks)",
        "PASS center ratio estimates (255 checks)",
        "FAIL pair wall nesting (2/255 failed, first: triad p=2 q=3)",
        "FAIL chain radius growth (2/63 failed, first: chain at p=0 q=6)",
        "FAIL triad character balances (2/63 failed, first: triad p=0 q=2)",
        "3/6 checks passed",
    ]


@pytest.mark.parametrize("suite", ["resolution", "kronecker", "walls", "all"])
def test_suites_over_n_from_two_reject_depth_one(capsys, suite):
    # once "PASS ... (0 checks)": n = 2..1 is empty
    with pytest.raises(ValueError, match="depth must be at least 2"):
        run_suite(suite, 1)
    assert main(["verify", suite, "--depth", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("suite, depth", [("gamma", "3"), ("gamma", 2.5), ("cf", True)], ids=repr)
def test_depth_is_an_int_and_not_a_bool(suite, depth):
    # once "'<' not supported between instances of 'str' and 'int'", then
    # "'float' object cannot be interpreted as an integer", and True ran cf at depth 1
    with pytest.raises(TypeError, match="^depth must be an int"):
        run_suite(suite, depth)


def test_all_builds_each_resolution_once_and_reports_as_the_suites_do(monkeypatch):
    # once twice per n: the kronecker suite rebuilt every resolution
    alone = [r for suite in verify._SUITES for r in run_suite(suite, 6)]
    counting.empty_core_memo(monkeypatch.setattr)
    built = counting.cores(monkeypatch.setattr)
    together = run_suite("all", 6)
    assert built == [2, 3, 4, 5, 6]
    assert format_report(together) == format_report(alone)
    run_suite("resolution", 20)
    built.clear()
    # once one per n: kronecker_data(n) built a whole resolution for m1, k and the case
    run_suite("kronecker", 20)
    assert built == []


@pytest.mark.parametrize(
    "suite, depth, message",
    [
        ("cf", 17, "^cf enumerates every slope of level <= depth, so depth must be at most 16$"),
        ("intervals", 12, "^intervals enumerates every slope .* at most 11$"),
        ("all", 50, "^cf enumerates every slope .* at most 16$"),
        ("all", 12, "^intervals enumerates every slope .* at most 11$"),
        ("all", 1, "^resolution checks n = 2..depth, so depth must be at least 2$"),
    ],
)
def test_every_depth_is_checked_before_any_suite_runs(monkeypatch, capsys, suite, depth, message):
    # once --depth 50 ran cf over 2^50 slopes and never ended, and run_suite("all", 1)
    # ran cf, intervals and gamma before it refused depth 1 for resolution
    def refuse(depth):
        raise AssertionError("a suite ran before every depth was checked")

    monkeypatch.setattr(
        verify, "_SUITES", {name: (refuse, *rest) for name, (_, *rest) in verify._SUITES.items()}
    )
    with pytest.raises(ValueError, match=message):
        run_suite(suite, depth)
    assert main(["verify", suite, "--depth", str(depth)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

