"""The galloping walk against the level-by-level one it replaced.

exceptional._walk jumps along a run of moves to one side through the memo.
The jump is sound because choose is the side of one fixed target and the
intervals are ordered like their slopes, so the walk must land where the
level-by-level walk of the unit tree (tests/sequential_walk.py), twisted by
k, lands, raise the same CantorPointError text, and leave the same unit tree
in the memo.  Each case warms two memos alike with the level-by-level walk,
then answers the same seeded queries through associated_slope, delta,
_gamma_inv and epsilon, once with each walk.
"""

import random
from fractions import Fraction

import pytest

import planecone.exceptional as exceptional
import planecone.stability as stability
from planecone.exceptional import CantorPointError, ExceptionalSlope, associated_slope, epsilon

import counting
from sequential_walk import first_decimal_above_golden, gamma_at, sequential_walk

TWISTS = (0, 7, -7, 10**6, -(10**6), 10**15, -(10**15))


def warm_nothing():
    pass


def warm_decimals():
    """The deep_descent inputs: decimals e = 5..60 above (3 - sqrt 5)/2, twisted and dualized."""
    for e in range(5, 61):
        x = first_decimal_above_golden(e)
        for k in TWISTS:
            for y in (x + k, -x - k):
                try:
                    associated_slope(y)
                except CantorPointError:
                    pass


def warm_twists():
    """Twisted slopes under m = 1, 2, 3 by epsilon, twists and duals.

    Each walk reads the unit tree and twists its landing, so no twisted ancestor is built.
    """
    for t in range(1, 66, 3):
        for m in (1, 2, 3):
            epsilon((1 + (m << t), t))
            epsilon((((m + 1) << t) - 1, t))
    for e in range(5, 54, 4):
        a = associated_slope(first_decimal_above_golden(e))
        for m in (1, 2, 3):
            associated_slope(a.value + m)
            a.dual_twist(m + 1)


def queries(rng):
    """Seeded (function, arguments) pairs; slopes for gamma_inv's targets are read here."""
    out = []
    for e in rng.sample(range(5, 61), 16):
        x = first_decimal_above_golden(e) + rng.choice(TWISTS)
        y = rng.choice((x, -x))
        out.append((associated_slope, (y,)))
        out.append((associated_slope, (y, rng.choice((0, 1, 40, 57)))))
        out.append((stability.delta, (-y,)))
    for _ in range(20):
        x = Fraction(rng.randrange(-(10**6), 10**6), rng.randrange(1, 10**4))
        out.append((rng.choice((associated_slope, stability.delta)), (x,)))
    for m in (0, 1, 2, 3):
        for t in rng.sample(range(1, 67), 6):
            for p in (1 + (m << t), ((m + 1) << t) - 1):
                g = gamma_at(epsilon((p, t)))
                out.append((stability._gamma_inv, (rng.choice((g, g + Fraction(1, 10**60))),)))
                # a few levels below the run: a random address this deep would
                # have a rank of astronomically many digits
                d = rng.randrange(1, 4)
                out.append((epsilon, (((p << d) + rng.choice((-1, 1)), t + d),)))
    for _ in range(20):
        q = rng.randrange(1, 13)
        out.append((epsilon, ((2 * rng.randrange(-(1 << q), 1 << q) + 1, q),)))
        out.append((stability._gamma_inv, (Fraction(rng.randrange(10**9), rng.randrange(1, 10**3)),)))
    rng.shuffle(out)
    return out


def fields(s):
    return s.value, s.address, s.rank, s.discriminant, s.euler


def landing(a):
    """The fields of a slope the walk returned, which must be the memo's own entry."""
    assert exceptional._MEMO[(a.address.p, a.address.q)] is a
    return fields(a)


def outcome(fn, args):
    try:
        out = fn(*args)
    except CantorPointError as exc:
        return "CantorPointError: %s" % exc
    if isinstance(out, ExceptionalSlope):
        return landing(out)
    if isinstance(out, tuple):
        return out[0], landing(out[1])
    return out


def unit_walk(k, choose, max_depth):
    """The level-by-level walk of the unit tree, twisted by k, with _walk's error text."""
    try:
        unit = sequential_walk(0, choose, max_depth)
    except CantorPointError:
        message = "no slope between %d and %d within depth %d" % (k, k + 1, max_depth)
        raise CantorPointError(message) from None
    return exceptional._twist(unit, k)


def answer_all(monkeypatch, walk, warm, todo):
    """warm() by the level-by-level walk, then every query by walk, on a memo of their own."""
    with monkeypatch.context() as m:
        m.setattr(exceptional, "_MEMO", {})
        counting.walks(m.setattr, call=unit_walk)
        warm()
        asked = counting.asked(m.setattr, walk)
        outcomes = [outcome(fn, args) for fn, args in todo]
        memo = dict(exceptional._MEMO)
    return outcomes, memo, len(asked)


# the slopes the gallop asks about over each case's queries, by (warm, seed); they
# depend on no machine, and one more choose(lo) per walk or per probe moves each
ASKED = {
    ("warm_nothing", 1): 1886,
    ("warm_nothing", 2): 1906,
    ("warm_nothing", 3): 1935,
    ("warm_decimals", 1): 1778,
    ("warm_decimals", 2): 1794,
    ("warm_decimals", 3): 1825,
    ("warm_twists", 1): 1750,
    ("warm_twists", 2): 1732,
    ("warm_twists", 3): 1778,
}


def unit_tree(memo):
    return {key: fields(s) for key, s in memo.items() if 0 <= key[0] <= 1 << key[1]}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("warm", [warm_nothing, warm_decimals, warm_twists], ids=lambda f: f.__name__)
def test_the_gallop_lands_where_the_level_by_level_walk_does(monkeypatch, warm, seed):
    todo = queries(random.Random(seed))
    got, got_memo, got_asked = answer_all(monkeypatch, exceptional._walk, warm, todo)
    want, want_memo, want_asked = answer_all(monkeypatch, unit_walk, warm, todo)
    for (fn, args), a, b in zip(todo, got, want):
        assert a == b, (fn.__name__, args)
    assert sum(isinstance(o, str) for o in want) >= 3
    assert unit_tree(got_memo) == unit_tree(want_memo)
    # a probe only reads, so the gallop builds nothing the walk by levels would not
    assert set(got_memo) <= set(want_memo)
    assert got_asked < want_asked
    assert got_asked == ASKED[warm.__name__, seed]
