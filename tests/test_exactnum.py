"""Exact quadratic-surd arithmetic against a high-precision Decimal oracle."""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecone.exactnum import (
    QuadSurd,
    fraction_str,
    parse_fraction,
    sqrt_rational,
    surd_cmp,
    surd_value,
)


def decimal_of(x, prec=80):
    """Oracle: evaluate a surd (or rational) with Decimal square roots."""
    getcontext().prec = prec
    if isinstance(x, QuadSurd):
        a = Decimal(x.a.numerator) / Decimal(x.a.denominator)
        b = Decimal(x.b.numerator) / Decimal(x.b.denominator)
        return a + b * Decimal(x.d).sqrt()
    f = Fraction(x)
    return Decimal(f.numerator) / Decimal(f.denominator)


fractions_st = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
small_roots = st.integers(min_value=0, max_value=600)


@st.composite
def surds(draw):
    return surd_value(draw(fractions_st), draw(fractions_st), draw(small_roots))


def test_normalization_folds_perfect_squares():
    assert surd_value(1, 2, 9) == Fraction(7)
    assert surd_value(1, 2, 9).is_rational()
    assert surd_value(0, 1, 18) == QuadSurd(0, 3, 2)
    assert surd_value(5, 0, 7) == Fraction(5)
    assert surd_value(5, 3, 0) == Fraction(5)
    assert surd_value(0, Fraction(2, 3), 45) == QuadSurd(0, 2, 5)


def test_sqrt_rational():
    assert sqrt_rational(Fraction(9, 4)) == Fraction(3, 2)
    root = sqrt_rational(Fraction(2, 3))
    assert root * root == Fraction(2, 3)
    with pytest.raises(ValueError):
        sqrt_rational(Fraction(-1, 4))


def test_equality_and_hash_agree_with_normal_form():
    x = surd_value(Fraction(1, 2), Fraction(1, 2), 8)
    y = surd_value(Fraction(1, 2), 1, 2)
    assert x == y
    assert hash(x) == hash(y)


def test_pow_only_nonnegative_integers():
    x = surd_value(0, 1, 2)
    assert x**2 == Fraction(2)
    assert x**0 == Fraction(1)
    with pytest.raises((ValueError, TypeError)):
        x ** (-1)


def test_floor_examples():
    assert math.floor(surd_value(0, 1, 2)) == 1
    assert math.floor(surd_value(0, -1, 2)) == -2
    assert math.floor(surd_value(Fraction(3, 2), 0, 0)) == 1
    assert math.floor(surd_value(-3, 2, 5)) == 1  # 2*sqrt(5) ~ 4.472


@given(surds(), surds())
@settings(max_examples=300, deadline=None)
def test_cmp_matches_decimal_oracle(x, y):
    got = surd_cmp(x, y)
    ax, ay = decimal_of(x), decimal_of(y)
    if ax == ay:
        # equal Decimals at 80 digits for these small inputs means equal
        assert got == 0
    elif abs(ax - ay) > Decimal("1e-60"):
        assert got == (1 if ax > ay else -1)


@given(surds(), fractions_st, small_roots)
@settings(max_examples=200, deadline=None)
def test_field_operations_match_oracle(x, b, d):
    y = surd_value(0, b, d)
    if isinstance(x, QuadSurd) and isinstance(y, QuadSurd) and x.d != y.d:
        return  # sums across distinct radicals leave the representable set
    for op in ("add", "sub", "mul"):
        z = {"add": x + y, "sub": x - y, "mul": x * y}[op]
        expect = {
            "add": decimal_of(x) + decimal_of(y),
            "sub": decimal_of(x) - decimal_of(y),
            "mul": decimal_of(x) * decimal_of(y),
        }[op]
        assert abs(decimal_of(z) - expect) < Decimal("1e-50")
    if surd_cmp(y, 0) != 0:
        q = x / y
        assert abs(decimal_of(q) - decimal_of(x) / decimal_of(y)) < Decimal("1e-50")


@given(surds())
@settings(max_examples=200, deadline=None)
def test_sign_floor_float_consistent(x):
    s = x.sign() if isinstance(x, QuadSurd) else (0 if x == 0 else (1 if x > 0 else -1))
    oracle = decimal_of(x)
    if oracle != 0:
        assert s == (1 if oracle > 0 else -1)
    fl = math.floor(x)
    assert fl <= oracle < fl + 1
    assert abs(Decimal(float(x)) - oracle) < Decimal("1e-9") * (1 + abs(oracle))


@given(surds())
@settings(max_examples=100, deadline=None)
def test_negation_and_mixed_comparisons(x):
    assert surd_cmp(x, x) == 0
    assert surd_cmp(-x, -x) == 0
    n = -x
    assert surd_cmp(x + n, 0) == 0
    if surd_cmp(x, 0) > 0:
        assert n < 0 < x
        assert x > Fraction(0) and n < Fraction(0)


def test_comparison_operators_with_fractions_both_sides():
    x = surd_value(0, 1, 5)  # sqrt 5 ~ 2.236
    assert x > 2 and x < Fraction(9, 4) and 2 < x and Fraction(9, 4) > x
    assert x >= x and x <= x
    assert not x == Fraction(2)


def test_near_tie_is_resolved_exactly():
    # 3363/2378 is a continued-fraction convergent of sqrt 2: off by ~9e-8
    close = Fraction(3363, 2378)
    root2 = surd_value(0, 1, 2)
    assert surd_cmp(close, root2) == 1
    assert surd_cmp(Fraction(1393, 985), root2) == -1


def test_fraction_str_and_parse_round_trip():
    assert fraction_str(Fraction(3)) == "3"
    assert fraction_str(Fraction(-17, 6)) == "-17/6"
    assert parse_fraction("-17/6") == Fraction(-17, 6)
    assert parse_fraction("4") == Fraction(4)
    with pytest.raises(ValueError):
        parse_fraction("three halves")


def test_to_json_shape():
    x = surd_value(Fraction(-3, 2), Fraction(1, 26), 1517)
    js = x.to_json()
    assert js == {"a": "-3/2", "b": "1/26", "d": 1517}


def test_hash_agrees_with_eq_across_unextracted_squares():
    # 1009 is past the trial-division primes, so its square stays in the radicand
    x = QuadSurd(Fraction(0), Fraction(1), 2 * 1009**2)
    y = QuadSurd(Fraction(0), Fraction(1009), 2)
    assert x.d != y.d and x == y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1
    assert hash(-x) == hash(-y)
