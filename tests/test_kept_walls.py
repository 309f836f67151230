"""Each wall is built once and carried by what it depends on.

A pair wall of a triad, a slope c with its parents lo < hi, lives on one
slope: W(a, b) of a slope and one of its parents on the child, and W(k - 1,
k + 1) and W(k, k + 1) of two integers on k and k + 1/2, whose parents they
are.  So a slope keeps at most three walls, in ExceptionalSlope._walls.  A
collapsing wall lives on the resolution record of its n, in
ResolutionData._wall.  These tests pin the carry: what a warm round builds,
that a repeat returns the same object, where each wall lives and that a kept
wall is the wall a fresh wall_between gives.
"""

import pytest

import planecone.exceptional as exceptional
import planecone.verify as verify
from planecone.bridgeland import collapsing_wall, exceptional_pair_wall, wall_between
from planecone.chern import exceptional_character
from planecone.exceptional import enumerate_slopes, epsilon, parent_pair
from planecone.resolution import KroneckerNotApplicableError, gaeta_resolution, kronecker_data
from planecone.verify import run_suite

import counting


def fresh(x, y):
    """The wall of two slopes, built from their characters and kept nowhere."""
    return wall_between(exceptional_character(x), exceptional_character(y))


def kept_walls():
    """The number of walls each slope in the memo keeps, by address."""
    return {key: len(s.__dict__.get("_walls", ())) for key, s in exceptional._MEMO.items()}


def test_a_warm_walls_round_builds_no_wall(monkeypatch):
    # once 879: the 830 pair walls, rebuilt each round, and the 49 collapsing walls
    run_suite("walls", 50)
    built = counting.walls(monkeypatch.setattr)
    assert all(r.passed for r in run_suite("walls", 50))
    assert built == []


def test_a_collapsing_wall_is_carried_by_its_record(monkeypatch):
    counting.empty_core_memo(monkeypatch.setattr)
    built = counting.walls(monkeypatch.setattr)
    for n in (2, 11, 12, 25, 1000):  # BelowDot, AboveDot, AtDot and two more
        wall = collapsing_wall(n)
        assert collapsing_wall(n) is wall is gaeta_resolution(n)._wall
    assert len(built) == 5


@pytest.mark.parametrize(
    "child, parent, home, slot",
    [
        ((1, 2), (1, 1), (1, 2), 1),  # W(2/5, 1/2) on 2/5, its upper parent
        ((1, 2), (0, 0), (1, 2), -1),  # W(2/5, 0) on 2/5, its lower parent
        ((3, 3), (1, 1), (3, 3), 1),  # W(12/29, 1/2) on 12/29, its upper parent
        ((1, 0), (3, 0), (2, 0), 0),  # W(1, 3): the parents of 2
        ((-2, 0), (-1, 0), (-3, 1), 0),  # W(-2, -1): the parents of -3/2
        ((9, 3), (1, 0), (9, 3), -1),  # a twist: W(18/13, 1) on 18/13 = 1 + 5/13
    ],
)
def test_a_triad_wall_is_one_object_in_either_order(monkeypatch, child, parent, home, slot):
    monkeypatch.setattr(exceptional, "_MEMO", {})
    a, b = epsilon(child), epsilon(parent)
    wall = exceptional_pair_wall(a, b)
    assert exceptional_pair_wall(b, a) is wall
    assert exceptional_pair_wall(a.value, b.address) is wall
    assert epsilon(home)._walls == {slot: wall}
    assert wall == fresh(a, b)
    assert sum(kept_walls().values()) == 1


@pytest.mark.parametrize(
    "x, y",
    [
        ((0, 0), (3, 0)),  # two integers 3 apart
        ((1, 2), (3, 2)),  # 2/5 and 3/5: one level, not adjacent
        ((1, 3), (1, 1)),  # 5/13 and 1/2: 1/2 is no parent of 5/13
        ((1, 1), (5, 1)),  # 1/2 and 5/2
    ],
)
def test_a_pair_outside_any_triad_leaves_no_slot(monkeypatch, x, y):
    monkeypatch.setattr(exceptional, "_MEMO", {})
    built = counting.walls(monkeypatch.setattr)
    a, b = epsilon(x), epsilon(y)
    slopes = dict(exceptional._MEMO)
    wall = exceptional_pair_wall(a, b)
    again = exceptional_pair_wall(b, a)
    assert wall == again == fresh(a, b) and wall is not again
    # each call built its wall
    assert len(built) == 2
    assert exceptional._MEMO == slopes
    assert set(kept_walls().values()) == {0}


def test_every_triad_wall_to_level_8_in_minus_2_to_2_is_kept_and_is_its_fresh_wall():
    slopes = enumerate_slopes(8, -2, 2)
    assert len(slopes) == 4 * 256 + 1
    for c in slopes:
        lo, hi = parent_pair(c)
        for x, y in ((c, lo), (c, hi), (lo, hi)):
            wall = exceptional_pair_wall(x, y)
            assert exceptional_pair_wall(y, x) is wall, (x.value, y.value)
            assert wall == fresh(x, y), (x.value, y.value)


def test_no_slope_keeps_more_than_three_walls_and_each_parent_wall_is_fresh():
    # a verify_suites round, then the answers of a resolution_walls input for
    # n = 2..5000; D's parents are k - 1 and k + 1 for an integer D = k, k and
    # k + 1 for D = k + 1/2, and otherwise a slope and one of its parents
    for suite, depth in counting.suite_depths().items():
        assert all(r.passed for r in run_suite(suite, depth))
    homes = {"integer": 0, "half": 0, "child": 0}
    for n in range(2, 5001):
        res = gaeta_resolution(n)
        collapsing_wall(n)
        try:
            kronecker_data(n)
        except KroneckerNotApplicableError:
            pass
        wall = exceptional_pair_wall(res.alpha, res.beta)
        assert wall is exceptional_pair_wall(res.beta, res.alpha)
        assert wall == fresh(res.alpha, res.beta), n
        q = res.dot_slope.address.q
        homes["integer" if q == 0 else "half" if q == 1 else "child"] += 1
        if q <= 1:
            assert res.dot_slope._walls[0] is wall
    assert min(homes.values()) > 0, homes
    counts = kept_walls().values()
    assert max(counts) == 3


def test_a_cold_walls_round_keeps_its_walls_on_the_slopes_it_reads(monkeypatch):
    # a wall lives on one of its own two slopes, so keeping the 830 walls of a
    # round builds no slope: the memo ends as it does when no wall is kept
    memos = []
    for keep in (True, False):
        counting.empty_memos(monkeypatch.setattr)
        if not keep:
            monkeypatch.setattr(verify, "exceptional_pair_wall", fresh)
        run_suite("resolution", 150)
        assert all(r.passed for r in run_suite("walls", 50))
        memos.append(exceptional._MEMO)
        if keep:
            assert sum(kept_walls().values()) == 830
    kept, plain = memos
    assert kept.keys() == plain.keys()


def test_a_kept_wall_is_built_by_the_first_call_only(monkeypatch):
    # both closed-form checks run once per wall: on the build, not on a repeat
    counting.empty_memos(monkeypatch.setattr)
    built = counting.walls(monkeypatch.setattr)
    alpha, beta = epsilon((1, 2)), epsilon((1, 1))
    for _ in range(3):
        exceptional_pair_wall(alpha, beta)
        exceptional_pair_wall(beta, alpha)
        collapsing_wall(7)
    assert len(built) == 2
