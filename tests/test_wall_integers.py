"""Walls decide in integers: nested, _wall_side and the bounds of the walls suite.

bridgeland._wall_side decides the side of a wall by cross products of its
center and radius^2 with the reference slope, nested orders centers by one
more, and the walls suite decides each bound by cross-multiplying.
fraction_wall_side and fraction_nested below are the two as they were when
they subtracted and squared Fractions.  They are the reference that the
integer forms are compared with: on every nesting the walls suite checks at
triad levels <= 10, and on seeded semicircles that touch the line, cross it
or are centered on it.  The suite's bounds are compared with their Fraction
forms through its own report, with its inputs moved onto and around each
bound through verify's bindings, so every test here reads only names the
Fraction forms had too.
"""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

import planecone.bridgeland as bridgeland
import planecone.resolution as resolution
import planecone.verify as verify
from planecone.bridgeland import KIND_SEMICIRCLE, Wall, exceptional_pair_wall, nested
from planecone.exactnum import _as_rational
from planecone.exceptional import epsilon
from planecone.stability import min_slope
from planecone.verify import CheckResult, run_suite

import counting

FIVE_FOURTHS = Fraction(5, 4)


def fraction_wall_side(w, ref):
    """The reference: -1 or +1 when w lies (weakly) left or right of s = ref, in Fractions."""
    if w.kind != KIND_SEMICIRCLE:
        raise ValueError("nesting compares semicircular walls")
    gap = w.center_s - ref
    if gap < 0 and gap * gap >= w.radius_sq:
        return -1
    if gap > 0 and gap * gap >= w.radius_sq:
        return 1
    raise ValueError("wall crosses the vertical line s = %s" % ref)


def fraction_nested(inner, outer, reference_slope):
    """The reference: the center criterion, its sides from fraction_wall_side."""
    ref = _as_rational(reference_slope)
    side = fraction_wall_side(inner, ref)
    if side != fraction_wall_side(outer, ref):
        raise ValueError("walls lie on opposite sides of s = %s" % ref)
    if inner.center_s == outer.center_s:
        return False
    if side < 0:
        return inner.center_s > outer.center_s
    return inner.center_s < outer.center_s


def outcome(fn, *args):
    """fn's answer, or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return "ValueError: %s" % exc


def touches(w, ref):
    return (w.center_s - ref) ** 2 == w.radius_sq


def triads(depth):
    for q in range(1, depth + 1):
        for p in range(0, 1 << q, 2):
            yield p, q


def test_every_nesting_of_the_walls_suite_to_level_10_matches_the_fraction_forms(monkeypatch):
    monkeypatch.setattr(verify, "PAIR_DEPTH", 10)
    calls = counting.nestings(monkeypatch.setattr)
    results = run_suite("walls", 10)
    assert all(r.passed for r in results), results
    assert len(calls) == 2 * 1023
    touching = 0
    for inner, outer, ref in calls:
        for w in (inner, outer):
            assert bridgeland._wall_side(w, ref) == fraction_wall_side(w, ref)
            touching += touches(w, ref)
        assert nested(inner, outer, ref) is fraction_nested(inner, outer, ref) is True
    # W(k, k + 1/2) touches s = k: the anchor of an integer slope has D = 0
    assert touching > 0


def seeded_rational(rng):
    return Fraction(rng.randint(-90, 90), rng.randint(1, 14))


def seeded_semicircle(rng, ref):
    """A wall around s = ref: touching, crossing, clear of it, centered on it, of radius^2 <= 0."""
    step = Fraction(rng.choice((-1, 1)), rng.randint(1, 9))
    center = rng.choice((seeded_rational(rng), ref, ref + step))
    gap_sq = (center - ref) ** 2
    tiny = Fraction(1, rng.randint(1, 10**6))
    radius_sq = rng.choice((
        gap_sq, gap_sq + tiny, gap_sq - tiny,
        seeded_rational(rng) ** 2, -abs(seeded_rational(rng)), Fraction(0),
    ))
    return Wall.semicircle(center, radius_sq)


def test_seeded_semicircles_decide_sides_nesting_and_emptiness_as_the_fraction_forms():
    rng = random.Random(2025)
    kinds = {"touching": 0, "crossing": 0, "centered": 0, "left": 0, "right": 0}
    walls = []
    for _ in range(4000):
        ref = rng.choice((Fraction(rng.randint(-40, 40), rng.randint(1, 9)), rng.randint(-5, 5)))
        inner, outer = seeded_semicircle(rng, ref), seeded_semicircle(rng, ref)
        if rng.random() < 0.1:
            outer = Wall.semicircle(inner.center_s, outer.radius_sq)
        walls += (inner, outer)
        for w in (inner, outer):
            want = outcome(fraction_wall_side, w, _as_rational(ref))
            assert outcome(bridgeland._wall_side, w, _as_rational(ref)) == want, (w, ref)
            gap = w.center_s - ref
            if gap == 0:
                kinds["centered"] += 1
            elif touches(w, ref):
                kinds["touching"] += 1
            elif isinstance(want, str):
                kinds["crossing"] += 1
            else:
                kinds["left" if want < 0 else "right"] += 1
        assert outcome(nested, inner, outer, ref) == outcome(fraction_nested, inner, outer, ref)
    assert min(kinds.values()) > 200, kinds
    assert all(w.is_empty() == (w.radius_sq <= 0) for w in walls)
    assert {w.radius_sq.numerator for w in walls if w.is_empty()} >= {0, -1}
    vertical = Wall.vertical(Fraction(1, 3))
    want = outcome(fraction_nested, vertical, vertical, 0)
    assert outcome(nested, vertical, vertical, 0) == want
    assert want == "ValueError: nesting compares semicircular walls"


def test_center_ratios_and_discriminants_to_level_10_hold_as_fractions(monkeypatch):
    monkeypatch.setattr(verify, "PAIR_DEPTH", 10)
    results = {r.name: r for r in run_suite("walls", 10)}
    assert results["center ratio estimates"] == CheckResult(
        "center ratio estimates", True, "1023 checks"
    )
    assert results["pair wall nesting"].passed
    for p, q in triads(10):
        alpha, beta, eta = epsilon((p, q)), epsilon((p + 1, q)), epsilon((p + 2, q))
        r1 = (beta.discriminant - alpha.discriminant) / (alpha.value - beta.value)
        r2 = (eta.discriminant - beta.discriminant) / (beta.value - eta.value)
        if q == 1:
            assert (r1, r2) == (Fraction(-3, 4), Fraction(3, 4))
        else:
            assert r1 < -1 and r2 > 1, (p, q)
        assert 2 * beta.discriminant < 1


def expected(name, failures, total):
    """The report line of a check whose failures, in the suite's order, are these."""
    if failures:
        detail = "%d/%d failed, first: %s" % (len(failures), total, failures[0])
        return CheckResult(name, False, detail)
    return CheckResult(name, True, "%d checks" % total)


def seeded_lambdas(how, depth):
    """lambda for n = 2..depth: min_slope's, or one within 1/m of the collapse bound's root.

    The root is -3/2 + sqrt(2n + 5/4) = (sqrt(8n + 5) - 3)/2, approached from
    below, from above, or from a seeded side of the two.
    """
    if how == "min_slope":
        return {n: min_slope(n).lam for n in range(2, depth + 1)}
    rng = random.Random(depth)
    lams = {}
    for n in range(2, depth + 1):
        m = rng.choice((1, 7, 10**6, 10**40))
        above = rng.randrange(2) if how == "either" else int(how == "above")
        lams[n] = Fraction(math.isqrt((8 * n + 5) * m * m) + above - 3 * m, 2 * m)
    return lams


@pytest.mark.parametrize(
    "how, failing", [("min_slope", 0), ("below", 1999), ("above", 0), ("either", None)]
)
def test_the_collapse_bound_to_n_2000_decides_as_its_fraction_form(monkeypatch, how, failing):
    # (lambda + 3/2)^2 - 2n = 5/4 cannot happen for a rational lambda: 8n + 5 would
    # be a square, and it is 5 mod 8, which no square is; so the seeded lambdas
    # come within 1/m of the bound from below and from above instead
    depth = 2000
    lams = seeded_lambdas(how, depth)
    wall = resolution.collapsing_wall(2)
    monkeypatch.setattr(verify, "collapsing_wall", lambda n: wall)
    monkeypatch.setattr(verify, "gaeta_resolution", lambda n: SimpleNamespace(lam=lams[n]))
    failures = [
        "n=%d radius bound" % n
        for n, lam in lams.items()
        if (lam + Fraction(3, 2)) ** 2 - 2 * n <= FIVE_FOURTHS
    ]
    if failing is None:
        assert 0 < len(failures) < depth - 1
    else:
        assert len(failures) == failing
    assert run_suite("walls", depth)[0] == expected("collapsing walls", failures, depth - 1)


def moved_wall(monkeypatch, seed):
    """Patch verify's pair walls: each radius^2 rounded down or up to a seeded multiple of 1/K.

    Rounding makes ties between consecutive chain radii and radii of exactly
    5/4.  Moved walls may cross their nesting line, so nested answers True.
    """
    real = verify.exceptional_pair_wall

    def moved(x, y):
        w = real(x, y)
        # W(x, y) = W(y, x), which the suite may read in either order and more than
        # once, so the seed is the sorted pair and every read is moved alike
        pair = sorted(((x.address.p, x.address.q), (y.address.p, y.address.q)))
        rng = random.Random("%s %s" % (seed, pair))
        k = rng.choice((1, 4, 8, 16, 100, 10**9))
        units = math.floor(w.radius_sq * k) + rng.randrange(2)
        return Wall.semicircle(w.center_s, Fraction(units, k))

    monkeypatch.setattr(verify, "exceptional_pair_wall", moved)
    counting.nestings(monkeypatch.setattr, call=lambda inner, outer, ref: True)
    return moved


@pytest.mark.parametrize("seed", range(4))
def test_radius_bounds_and_chain_growth_decide_as_their_fraction_forms(monkeypatch, seed):
    moved = moved_wall(monkeypatch, seed)
    radius_failures, chain_failures = [], []
    for p, q in triads(verify.PAIR_DEPTH):
        alpha, beta, eta = epsilon((p, q)), epsilon((p + 1, q)), epsilon((p + 2, q))
        for x, y in ((alpha, beta), (beta, eta)):
            if moved(x, y).radius_sq >= FIVE_FOURTHS:
                radius_failures.append("pair (%s, %s)" % (x.value, y.value))
        if q <= verify.CHAIN_LENGTH:
            radii = [
                moved(alpha, epsilon(((p << j) + 1, q + j))).radius_sq
                for j in range(verify.CHAIN_LENGTH)
            ]
            if not all(r < s < FIVE_FOURTHS for r, s in zip(radii, radii[1:])):
                chain_failures.append("chain at p=%d q=%d" % (p, q))
    assert radius_failures and chain_failures
    results = {r.name: r for r in run_suite("walls", 50)}
    assert results["pair wall radius bound"] == expected(
        "pair wall radius bound", radius_failures, 510
    )
    assert results["chain radius growth"] == expected("chain radius growth", chain_failures, 63)


def patch_one_wall(monkeypatch, pair, radius_sq):
    """Patch verify's pair wall of the two addresses to the given radius^2, its center kept."""
    real = verify.exceptional_pair_wall

    def patched(x, y):
        w = real(x, y)
        if (x.address, y.address) == tuple(epsilon(a).address for a in pair):
            return Wall.semicircle(w.center_s, radius_sq(x, y, w))
        return w

    monkeypatch.setattr(verify, "exceptional_pair_wall", patched)


def report(depth=50):
    return {r.name: r for r in run_suite("walls", depth)}


def test_a_pair_wall_of_radius_squared_five_fourths_fails_the_bound(monkeypatch):
    # W(2/5, 12/29), the left wall of the triad at p = 2, q = 3, lies 7/5 left of
    # s = 2/5, so at radius^2 = 5/4 it still lies on that side; >= 5/4 is a failure
    patch_one_wall(monkeypatch, ((2, 3), (3, 3)), lambda x, y, w: FIVE_FOURTHS)
    results = report()
    assert results["pair wall radius bound"] == CheckResult(
        "pair wall radius bound", False, "1/510 failed, first: pair (2/5, 12/29)"
    )
    assert results["pair wall nesting"].passed


def test_two_equal_chain_radii_fail_the_growth(monkeypatch):
    # the last link of the chain at p = 6, q = 6 is on level 11, which no other
    # check reaches; give it the radius of the link before it
    alpha = epsilon((6, 6))
    before = exceptional_pair_wall(alpha, epsilon(((6 << 4) + 1, 10)))
    patch_one_wall(monkeypatch, ((6, 6), ((6 << 5) + 1, 11)), lambda x, y, w: before.radius_sq)
    results = report()
    assert results["chain radius growth"] == CheckResult(
        "chain radius growth", False, "1/63 failed, first: chain at p=6 q=6"
    )
    assert all(r.passed for name, r in results.items() if name != "chain radius growth")


def test_a_touching_wall_still_counts_as_a_side_in_the_suite(monkeypatch):
    # W(2/5, 12/29) moved to touch s = 2/5, its center kept: nested must still
    # put it left of the line and compare centers, not raise that it crosses
    patch_one_wall(
        monkeypatch, ((2, 3), (3, 3)), lambda x, y, w: (w.center_s - x.value) ** 2
    )
    calls = counting.nestings(
        monkeypatch.setattr, record=lambda args, answer: (args[0], args[2], answer)
    )
    results = report()
    assert results["pair wall nesting"] == CheckResult("pair wall nesting", True, "255 checks")
    # a wall off an integer slope touches its line only when moved there: 2 D > 0
    at_two_fifths = [(inner, answer) for inner, ref, answer in calls if ref == Fraction(2, 5)]
    assert [answer for inner, answer in at_two_fifths if touches(inner, Fraction(2, 5))] == [True]
