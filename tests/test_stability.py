"""The delta and gamma functions, nonemptiness, heights, and minimal slopes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecone.chern import ChernCharacter, exceptional_character
from planecone.exactnum import QuadSurd, surd_cmp
from planecone.exceptional import (
    CantorPointError,
    associated_slope,
    dot,
    enumerate_slopes,
    epsilon,
    exceptional_slope_of,
    hilbert_poly,
)
from planecone.stability import (
    CASE_EXCEPTIONAL_BUNDLE,
    CASE_NON_EXCEPTIONAL,
    CASE_TRIANGULAR_MINUS_ONE,
    _gamma_inv,
    delta,
    gamma,
    gamma_inv,
    height,
    min_slope,
    moduli_nonempty,
)

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
        (moduli_nonempty, (1, 0.0, 0.0)),
        (exceptional_slope_of, (0.5,)),
        (enumerate_slopes, (2, 0.0, 1)),
    ],
    ids=lambda x: getattr(x, "__name__", repr(x)),
)
def test_a_rational_argument_is_an_int_or_a_fraction(fn, args):
    with pytest.raises(TypeError, match="as a rational"):
        fn(*args)


@pytest.mark.parametrize("r", [1.5, 2.0, Fraction(2), "2"], ids=repr)
def test_moduli_nonempty_rank_is_an_int(r):
    # once AttributeError: 'float' object has no attribute 'denominator' for 1.5
    with pytest.raises(TypeError):
        moduli_nonempty(r, Fraction(0), Fraction(0))


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
        # and the Euler slope stays below the value of P at the right endpoint
        right = slope.value + slope.interval_radius
        bound = hilbert_poly(right) - Fraction(1, 2)
        assert surd_cmp(Fraction(slope.euler, slope.rank), bound) < 0


def test_moduli_nonempty_basic():
    # comfortably above the delta curve
    assert moduli_nonempty(2, Fraction(1, 2), Fraction(11, 8))
    # exactly on the curve still counts
    assert moduli_nonempty(8, Fraction(1, 2), Fraction(5, 8))
    # the exceptional point itself: semi-exceptional series
    assert moduli_nonempty(2, Fraction(1, 2), Fraction(3, 8))
    assert moduli_nonempty(6, Fraction(1, 2), Fraction(3, 8))
    # between the exceptional discriminant and the curve: empty
    assert not moduli_nonempty(8, Fraction(1, 2), Fraction(1, 2))
    assert not moduli_nonempty(2, Fraction(0), Fraction(1, 2))
    assert not moduli_nonempty(1, Fraction(0), Fraction(-1))


def test_moduli_nonempty_integrality_guards():
    with pytest.raises(ValueError):
        moduli_nonempty(2, Fraction(1, 3), Fraction(1))  # c1 = 2/3 not integral
    with pytest.raises(ValueError):
        moduli_nonempty(2, Fraction(1, 2), Fraction(1, 3))  # ch2 not half-integral
    with pytest.raises(ValueError):
        moduli_nonempty(0, Fraction(1, 2), Fraction(1))


def test_height_examples():
    assert height(exceptional_character(Fraction(1, 2))) == -1
    assert height(ChernCharacter(1, 0, -1)) == 0
    assert height(ChernCharacter(6, 34, 93)) == 0
    assert height(ChernCharacter(1, 0, -2)) > 0


def test_height_scales_with_rank_multiples():
    base = ChernCharacter(1, 0, -1)
    doubled = 2 * base
    assert height(doubled) == 2 * height(base) + 0  # same delta gap, twice r
    with pytest.raises(ValueError):
        height(ChernCharacter(-1, 0, 0))


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
        assert surd_cmp(lo, mu) < 0 < surd_cmp(hi, mu)


def test_min_slope_rejects_non_int_before_any_arithmetic(monkeypatch):
    import planecone.stability as stability
    from planecone.bridgeland import collapsing_wall
    from planecone.resolution import gaeta_resolution, kronecker_data

    def refuse(q):
        raise AssertionError("gamma_inv ran on a non-int n")

    monkeypatch.setattr(stability, "_gamma_inv", refuse)
    # True once gave a row with n=True; 2.5 failed inside math.isqrt
    for bad in (True, 2.5, 6.0, Fraction(6)):
        with pytest.raises(TypeError):
            min_slope(bad)
    for fn in (gaeta_resolution, collapsing_wall, kronecker_data):
        with pytest.raises(TypeError):
            fn(2.5)


def test_gamma_inv_round_trip_failure_raises_arithmetic_error(monkeypatch):
    # once an assert, so an AssertionError that vanished under python -O
    import planecone.stability as stability

    true_delta = stability._delta
    monkeypatch.setattr(stability, "_delta", lambda mu, a: true_delta(mu, a) + 1)
    with pytest.raises(ArithmeticError, match="round trip"):
        gamma_inv(5)


def _gamma_inv_by_xi(q):
    """The slope whose interval holds the irrational root xi of P(x) = q + 1/2.

    This is how gamma_inv once found its interval, kept as a reference.
    """
    den = q.denominator
    xi = QuadSurd(Fraction(-3, 2), Fraction(1, 2 * den), (5 * den + 8 * q.numerator) * den)
    return associated_slope(xi)


def test_gamma_inv_walk_finds_the_slope_of_xi():
    rng = random.Random(20)
    qs = [Fraction(rng.randrange(1, 10 ** rng.randrange(1, 31))) for _ in range(150)]
    qs += [Fraction(rng.randrange(1, 10 ** 6), rng.randrange(1, 10 ** 4)) for _ in range(150)]
    for q in qs:
        assert _gamma_inv(q)[1] is _gamma_inv_by_xi(q), q


def test_gamma_inv_gives_up_below_depth_64():
    # gamma at a slope is P(alpha) - 1 + D_alpha; gamma() itself would walk too deep
    def gamma_at(s):
        return hilbert_poly(s.value) - 1 + s.discriminant

    assert gamma_inv(gamma_at(epsilon((1, 64)))) == epsilon((1, 64)).value
    with pytest.raises(CantorPointError):
        gamma_inv(gamma_at(epsilon((1, 65))))
