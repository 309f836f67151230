"""The delta and gamma functions and minimal slopes."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planecone.exceptional as exceptional
from planecone.bridgeland import Wall, bridgeland_from_mori, nested
from planecone.chern import ChernCharacter, line_bundle
from planecone.exactnum import QuadSurd, fraction_str
from planecone.exceptional import (
    MAX_DEPTH,
    CantorPointError,
    _twist,
    associated_slope,
    dot,
    enumerate_slopes,
    epsilon,
    exceptional_slope_of,
    hilbert_poly,
)
from planecone.resolution import (
    classical_gaeta,
    collapsing_wall,
    gaeta_resolution,
    kronecker_data,
)
from planecone.stability import (
    CASE_EXCEPTIONAL_BUNDLE,
    CASE_NON_EXCEPTIONAL,
    CASE_TRIANGULAR_MINUS_ONE,
    _branch,
    _gamma_inv,
    delta,
    gamma,
    gamma_inv,
    min_slope,
)

import counting
from decimal_oracle import oracle_cmp, times
from sequential_walk import gamma_at, sequential_walk

small_rationals = st.fractions(
    min_value=Fraction(0), max_value=Fraction(8), max_denominator=120
)


@pytest.mark.parametrize(
    "fn, args",
    [
        (hilbert_poly, (0.5,)),  # once the float 1.875
        (delta, (0.1,)),  # once delta of the binary float 0.1000000000000000055...
        (delta, ("1/2",)),
        (gamma, (0.5,)),
        (gamma_inv, (2.5,)),
        (dot, (0.5, 1)),
        (exceptional_slope_of, (0.5,)),
        (enumerate_slopes, (2, 0.0, 1)),
        # once each of these answered for the float or the string as for 1/2
        (ChernCharacter, (0.5, 0, 0)),
        (ChernCharacter, ("1/2", 0, 0)),
        (line_bundle, (0.5,)),
        (operator.mul, (ChernCharacter(1, 0, 0), 0.5)),
        (Wall.semicircle, (0.5, 1)),
        (Wall.vertical, (0.5,)),
        (nested, (Wall.semicircle(-3, 1), Wall.semicircle(-4, 1), 0.5)),
        (bridgeland_from_mori, (0.5,)),
        (fraction_str, (0.5,)),
        # once "cannot compare float as an exact scalar" and "must be real number,
        # not str"; a surd was compared with the interval ends
        (associated_slope, (0.5,)),
        (associated_slope, ("1/2",)),
        (associated_slope, (QuadSurd(0, 1, 2),)),
        (epsilon(0).side, (0.5,)),
        (epsilon(0).side, (QuadSurd(0, 1, 2),)),
        # once each of these answered for True as for 1
        (delta, (True,)),
        (gamma_inv, (True,)),
        (hilbert_poly, (True,)),
        (associated_slope, (True,)),
        (fraction_str, (True,)),
        (line_bundle, (True,)),
        (ChernCharacter, (1, True, 0)),
    ],
    ids=lambda x: getattr(x, "__name__", repr(x)),
)
def test_a_rational_argument_is_an_int_or_a_fraction(fn, args):
    with pytest.raises(TypeError, match="as a rational"):
        fn(*args)


def test_delta_examples():
    assert delta(Fraction(0)) == 1
    assert delta(Fraction(1)) == 1
    assert delta(Fraction(1, 2)) == Fraction(5, 8)
    assert delta(Fraction(21, 4)) == Fraction(21, 32)
    assert delta(Fraction(17, 3)) == Fraction(5, 9)
    assert delta(Fraction(19, 6)) == Fraction(55, 72)


def test_delta_integer_translation_invariance():
    for mu in [Fraction(1, 2), Fraction(2, 5), Fraction(5, 13), Fraction(1, 3)]:
        assert delta(mu + 1) == delta(mu)
        assert delta(mu + 5) == delta(mu)


def test_delta_reflection_symmetry():
    # reflection through an exceptional slope preserves the one-sided formula
    alpha = Fraction(1, 2)
    for offset in [Fraction(1, 100), Fraction(1, 10)]:
        assert delta(alpha + offset) == delta(alpha - offset)


@given(small_rationals)
@settings(max_examples=300, deadline=None)
def test_delta_exceeds_half_on_rationals(mu):
    assert delta(mu) > Fraction(1, 2)


def test_gamma_anchor_values():
    assert gamma(Fraction(0)) == 0
    assert gamma(Fraction(1, 3)) == 1
    assert gamma(Fraction(1)) == 2
    assert gamma(Fraction(14, 9)) == 4
    assert gamma(Fraction(17, 3)) == 25
    assert gamma(Fraction(197, 23)) == 50
    assert gamma(Fraction(19, 6)) == 10
    assert gamma(Fraction(10, 3)) == 11


def test_gamma_rejects_negative_input():
    with pytest.raises(ValueError):
        gamma(Fraction(-1, 2))


def test_gamma_inv_anchor_values():
    assert gamma_inv(Fraction(0)) == 0
    assert gamma_inv(Fraction(1)) == Fraction(1, 3)
    assert gamma_inv(Fraction(2)) == 1
    assert gamma_inv(Fraction(4)) == Fraction(14, 9)
    assert gamma_inv(Fraction(25)) == Fraction(17, 3)
    assert gamma_inv(Fraction(50)) == Fraction(197, 23)
    assert gamma_inv(Fraction(10)) == Fraction(19, 6)
    assert gamma_inv(Fraction(11)) == Fraction(10, 3)


@given(small_rationals)
@settings(max_examples=200, deadline=None)
def test_gamma_round_trip(mu):
    assert gamma_inv(gamma(mu)) == mu


@given(small_rationals, small_rationals)
@settings(max_examples=200, deadline=None)
def test_gamma_strictly_increasing(a, b):
    if a == b:
        assert gamma(a) == gamma(b)
    else:
        lo, hi = min(a, b), max(a, b)
        assert gamma(lo) < gamma(hi)


def test_gamma_at_interval_endpoint_against_euler_bound():
    # gamma(alpha) + 1/r^2 equals chi_alpha / r_alpha on the nose
    for slope in enumerate_slopes(6, Fraction(0), Fraction(2)):
        lhs = gamma(slope.value) + Fraction(1, slope.rank**2)
        assert lhs == Fraction(slope.euler, slope.rank)
        # and the Euler slope stays below the value of P at the right endpoint,
        # value + 3/2 - sqrt(d)/(2r) as its coefficient pair over d = 9r^2 - 4
        r = slope.rank
        d = 9 * r * r - 4
        right = (slope.value + Fraction(3, 2), Fraction(-1, 2 * r))
        assert QuadSurd(*right, d) == slope.interval()[1]
        # P(right) = (right^2 + 3 right + 2)/2
        sq = times(right, right, d)
        bound = ((sq[0] + 3 * right[0] + 2) / 2 - Fraction(1, 2), (sq[1] + 3 * right[1]) / 2)
        assert oracle_cmp(Fraction(slope.euler, slope.rank), QuadSurd(*bound, d)) < 0


def test_min_slope_small_cases():
    one = min_slope(1)
    assert one.mu == 0 and one.lam == Fraction(1, 3)
    assert one.case == CASE_EXCEPTIONAL_BUNDLE

    two = min_slope(2)
    assert two.mu == 1 and two.lam == 1
    assert two.case == CASE_TRIANGULAR_MINUS_ONE

    four = min_slope(4)
    assert four.mu == Fraction(3, 2) and four.lam == Fraction(14, 9)
    assert four.case == CASE_EXCEPTIONAL_BUNDLE
    assert four.associated.value == Fraction(3, 2)


def test_min_slope_larger_cases():
    ten = min_slope(10)
    assert ten.mu == 3 and ten.lam == Fraction(19, 6)
    assert ten.case == CASE_EXCEPTIONAL_BUNDLE

    fifty = min_slope(50)
    assert fifty.mu == Fraction(197, 23)
    assert fifty.case == CASE_NON_EXCEPTIONAL
    assert fifty.associated.value == Fraction(17, 2)

    seven = min_slope(7)
    assert seven.mu == Fraction(12, 5)
    assert seven.case == CASE_EXCEPTIONAL_BUNDLE


def test_min_slope_triangular_sequence():
    # n = (k+1)(k+2)/2 - 1 gives mu = lambda = k exactly
    for k in range(1, 12):
        n = (k + 1) * (k + 2) // 2 - 1
        ms = min_slope(n)
        assert ms.case == CASE_TRIANGULAR_MINUS_ONE
        assert ms.mu == k and ms.lam == k


def test_min_slope_exceptional_euler_justification():
    # when mu < lambda, the associated slope must afford enough sections
    for n in range(1, 120):
        ms = min_slope(n)
        if ms.case == CASE_EXCEPTIONAL_BUNDLE:
            assert ms.mu == ms.associated.value
            assert ms.mu <= ms.lam
            assert Fraction(ms.associated.euler, ms.associated.rank) >= n
        elif ms.case == CASE_NON_EXCEPTIONAL:
            assert ms.mu == ms.lam
            a = associated_slope(ms.lam)
            assert ms.associated.value == a.value


def test_min_slope_rejects_nonpositive():
    with pytest.raises(ValueError):
        min_slope(0)


@pytest.mark.parametrize(
    "fn",
    [min_slope, classical_gaeta, gaeta_resolution, collapsing_wall, kronecker_data],
    ids=lambda fn: fn.__name__,
)
@pytest.mark.parametrize("n", [True, 2.0, "3"], ids=repr)
def test_n_is_an_int_and_not_a_bool(fn, n):
    # once classical_gaeta(True) answered with "n": true, and "3" failed on '<';
    # gaeta_resolution, collapsing_wall and kronecker_data once failed on '<' for "3"
    # and raised "computed for n >= 2" for True
    with pytest.raises(TypeError, match="^n must be an int, not %s$" % type(n).__name__):
        fn(n)


def test_min_slope_to_json():
    js = min_slope(50).to_json()
    assert js["n"] == 50
    assert js["mu"] == "197/23"
    assert js["lambda"] == "197/23"
    assert js["alpha"] == "17/2"
    assert js["case"] == CASE_NON_EXCEPTIONAL


def test_delta_against_associated_interval():
    # delta is computed through the interval decomposition, so the defining
    # identity P(-|mu - alpha|) - D_alpha must hold with the found alpha
    for mu in [Fraction(17, 3), Fraction(19, 6), Fraction(2, 5), Fraction(9, 10)]:
        a = associated_slope(mu)
        gap = abs(mu - a.value)
        assert delta(mu) == hilbert_poly(-gap) - a.discriminant


def test_gamma_inv_of_euler_slope_is_interval_value():
    # chi_alpha / r_alpha inverts into the interval of alpha for small slopes
    for addr in [(0, 0), (1, 1), (1, 2)]:
        e = epsilon(addr)
        q = Fraction(e.euler, e.rank)
        mu = gamma_inv(q)
        lo, hi = e.interval()
        assert oracle_cmp(lo, mu) < 0 < oracle_cmp(hi, mu)


def test_min_slope_rejects_non_int_before_any_arithmetic(monkeypatch):
    import planecone.stability as stability

    def refuse(q):
        raise AssertionError("gamma_inv ran on a non-int n")

    # the results the three answers once also took in place of n
    held = (min_slope(5), gaeta_resolution(5))
    monkeypatch.setattr(stability, "_gamma_inv", refuse)
    # True once gave a row with n=True; 2.5 failed inside math.isqrt
    for bad in (True, 2.5, 6.0, Fraction(6)):
        with pytest.raises(TypeError):
            min_slope(bad)
    for fn in (gaeta_resolution, collapsing_wall, kronecker_data):
        for bad in (2.5,) + held:
            with pytest.raises(TypeError, match="^n must be an int, not %s$" % type(bad).__name__):
                fn(bad)


def test_gamma_inv_round_trip_failure_raises_arithmetic_error(monkeypatch):
    # once an assert, so an AssertionError that vanished under python -O
    import planecone.stability as stability

    # delta + 1 at u/v is 2v^2r^2 more on the integer numerator the round trip reads
    true_numerator = stability._delta_numerator

    def faulty(u, v, a):
        return true_numerator(u, v, a) + 2 * v * v * a.rank * a.rank

    monkeypatch.setattr(stability, "_delta_numerator", faulty)
    with pytest.raises(ArithmeticError, match="round trip"):
        gamma_inv(5)


def _xi(q):
    """The irrational root xi of P(x) = q + 1/2; gamma_inv once searched for its interval."""
    den = q.denominator
    return QuadSurd(Fraction(-3, 2), Fraction(1, 2 * den), (5 * den + 8 * q.numerator) * den)


def test_gamma_inv_walk_finds_the_slope_of_xi():
    # the intervals are disjoint, so the one that holds xi names the slope
    rng = random.Random(20)
    qs = [Fraction(rng.randrange(1, 10 ** rng.randrange(1, 31))) for _ in range(150)]
    qs += [Fraction(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 4)) for _ in range(150)]
    for q in qs:
        lo, hi = _gamma_inv(q)[1].interval()
        xi = _xi(q)
        assert oracle_cmp(lo, xi) < 0 < oracle_cmp(hi, xi), q


def _fraction_branch(q, a):
    """The point where gamma's affine piece on the half of I_a facing q takes q.

    This is gamma_inv's branch as it once was, in Fraction arithmetic, kept as
    a reference for the integer pair of stability._branch.
    """
    g = hilbert_poly(a.value) - 1 + a.discriminant
    if q == g:
        return a.value
    return a.value + (q - g) / (a.value + 3 if q > g else a.value)


def test_integer_branch_matches_the_fraction_branch_at_every_level(monkeypatch):
    ks = counting.walks(monkeypatch.setattr)
    asked = counting.asked(monkeypatch.setattr)
    # the reference twists every slope asked; those twists stay in a copy of the memo
    monkeypatch.setattr(exceptional, "_MEMO", dict(exceptional._MEMO))
    rng = random.Random(22)
    qs = [Fraction(rng.randrange(0, 10 ** rng.randrange(1, 31))) for _ in range(150)]
    qs += [Fraction(rng.randrange(0, 10 ** 6), rng.randrange(1, 10 ** 4)) for _ in range(150)]
    qs += [Fraction(e.euler, e.rank) for e in enumerate_slopes(4, 0, 3)]
    # gamma at a slope of level 40 walks 40 levels down; 10^-60 above it the
    # answer has left I_alpha, of radius about 10^-96, for the interval of its
    # ancestor at level 37
    deep = epsilon((5, 40))
    at_deep = hilbert_poly(deep.value) - 1 + deep.discriminant
    deep_qs = [at_deep, at_deep + Fraction(1, 10 ** 60)]
    qs += deep_qs
    levels = {}
    for q in qs:
        asked.clear()
        ks.clear()
        mu, a = _gamma_inv(q)
        # the walk asks unit slopes and twists its landing by the integer part m
        [m] = ks
        assert _twist(asked[-1], m) is a
        t = q.numerator - q.denominator * (m * (m + 3) // 2)
        for s in asked:
            assert 0 <= s.value <= 1
            point = _fraction_branch(q, _twist(s, m)) - m
            u, v = _branch(t, q.denominator, s, m)
            assert v > 0 and Fraction(u, v) == point, (q, s.value)
            assert s._side_of(u, v) == s._side_of(3 * u, 3 * v) == s.side(point), (q, s.value)
        assert mu == _fraction_branch(q, a)
        levels[q] = a.address.q
    assert [levels[q] for q in deep_qs] == [40, 37]


def walk_of_the_twisted_tree(monkeypatch, q):
    """The walk gamma_inv made before it steered unit slopes, on a memo of its own.

    It goes down the tree between m and m + 1, gamma(m) <= q < gamma(m + 1),
    level by level, and steers by the side of the Fraction branch point at
    each twisted slope, so the check leans on neither the gallop nor the
    integer branch it checks.
    """
    m = (math.isqrt(9 + 8 * math.floor(q)) - 3) // 2
    assert m * (m + 3) / 2 <= q < (m + 1) * (m + 4) / 2
    with monkeypatch.context() as mp:
        mp.setattr(exceptional, "_MEMO", {})
        return sequential_walk(m, lambda s: s.side(_fraction_branch(q, s)), MAX_DEPTH)


def test_gamma_inv_lands_where_the_walk_of_the_twisted_tree_does(monkeypatch):
    rng = random.Random(24)
    qs = [Fraction(rng.randrange(0, 10 ** rng.randrange(1, 16))) for _ in range(120)]
    qs += [Fraction(rng.randrange(0, 10 ** 6), rng.randrange(1, 10 ** 4)) for _ in range(120)]
    deep = epsilon((5, 40))
    at_deep = hilbert_poly(deep.value) - 1 + deep.discriminant
    qs += [at_deep, at_deep + Fraction(1, 10 ** 60)]
    fields = ("value", "address", "rank", "discriminant", "euler")
    for q in qs:
        mu, a = _gamma_inv(q)
        ref = walk_of_the_twisted_tree(monkeypatch, q)
        assert [getattr(a, f) for f in fields] == [getattr(ref, f) for f in fields], q
        assert mu == _fraction_branch(q, ref), q


def test_gamma_inv_gives_up_below_depth_64():
    # gamma() itself would walk too deep
    assert gamma_inv(gamma_at(epsilon((1, 64)))) == epsilon((1, 64)).value
    with pytest.raises(CantorPointError):
        gamma_inv(gamma_at(epsilon((1, 65))))
    with pytest.raises(CantorPointError, match="between 12 and 13"):
        gamma_inv(gamma_at(epsilon((12 * 2**65 + 1, 65))))
