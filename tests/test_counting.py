"""The counting harness itself: each counter sees one known build, and every binding goes back.

Each build runs on empty memos, under monkeypatch and under the tools' Patcher.
"""

from fractions import Fraction

import pytest

import planecone.bridgeland as bridgeland
import planecone.exceptional as exceptional
import planecone.resolution as resolution
import planecone.verify as verify
from planecone import ChernCharacter, DyadicAddress, Wall, cf_expand_even, epsilon
from planecone import exceptional_pair_wall

import counting

THIRD, SIXTH, CH = Fraction(1, 3), Fraction(1, 6), ChernCharacter(1, 0, 0)
WALL = Wall.semicircle(Fraction(-5, 2), Fraction(9, 4))

BUILDS = {
    "fractions": lambda: THIRD + SIXTH,
    "characters": lambda: ChernCharacter(1, 0, 0),
    "characters-of": lambda: ChernCharacter._of(1, 0, 0),
    "walks": lambda: epsilon((1, 2)),  # one walk, to 2/5 by 0, 1 and 1/2
    "slopes": lambda: epsilon((0, 0)),
    "asked": lambda: epsilon((0, 0)),
    "addresses": lambda: DyadicAddress(1, 2),
    "surds": lambda: epsilon((1, 2)).interval_radius,  # built on first use
    "seq_terms": lambda: resolution.SeqTerm("W", CH),
    "continued_fractions": lambda: cf_expand_even(Fraction(5, 13)),
    "walls": lambda: bridgeland.wall_between(CH, ChernCharacter(1, -1, Fraction(1, 2))),
    "pair_walls": lambda: exceptional_pair_wall(epsilon((1, 2)), epsilon((1, 1))),
    "nestings": lambda: verify.nested(WALL, WALL, 0),
    "lookups": lambda: exceptional.exceptional_slope_of(Fraction(2, 5)),
    "cores": lambda: resolution.gaeta_resolution(2),
}


@pytest.mark.parametrize("how", ["monkeypatch", "patcher"])
@pytest.mark.parametrize("build", sorted(BUILDS))
def test_each_counter_sees_one_known_build_and_puts_back_what_it_wrapped(monkeypatch, build, how):
    counting.empty_memos(monkeypatch.setattr)
    wrapped = []
    with monkeypatch.context() as m, counting.Patcher() as patcher:
        patch = m.setattr if how == "monkeypatch" else patcher

        def install(owner, name, value):
            wrapped.append((owner, name, vars(owner).get(name)))
            patch(owner, name, value)

        built = getattr(counting, build.split("-")[0])(install)
        BUILDS[build]()
    assert len(built) == 1, built
    # an inherited binding, absent from the class before, is absent again
    assert wrapped and all(vars(owner).get(name) is was for owner, name, was in wrapped)
