"""Exact quadratic-surd arithmetic against a high-precision Decimal oracle."""

import hashlib
import json
import math
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecone.exactnum import (
    QuadSurd,
    _as_rational,
    fraction_str,
    parse_fraction,
    sqrt_rational,
    surd_cmp,
    surd_value,
)
from planecone.exceptional import enumerate_slopes


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
    # once a ZeroDivisionError, which the CLI printed as "error: Fraction(1, 0)"
    with pytest.raises(ValueError, match="^invalid rational '1/0': zero denominator$"):
        parse_fraction("1/0")


def test_a_rational_is_an_int_or_a_fraction():
    x = Fraction(-17, 6)
    assert _as_rational(x) is x
    assert _as_rational(4) == Fraction(4)
    for bad in (0.5, "1/2", Decimal("0.5"), surd_value(0, 1, 2)):
        with pytest.raises(TypeError, match="as a rational"):
            _as_rational(bad)


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


def test_arithmetic_across_radicands_that_differ_by_a_square():
    # once raised "mixed radicands 2036162 and 2"
    x = QuadSurd(Fraction(0), Fraction(1), 2 * 1009**2)
    y = QuadSurd(Fraction(0), Fraction(1009), 2)
    assert x + y == QuadSurd(Fraction(0), Fraction(2018), 2)
    assert x - y == 0 and y - x == 0
    assert x * y == 2036162 and y * x == 2036162
    assert x / y == 1 and (3 + x) / (1 + y) * (1 + y) == 3 + x
    for op in (QuadSurd.__add__, QuadSurd.__mul__, QuadSurd.__truediv__):
        with pytest.raises(ValueError, match="mixed radicands"):
            op(QuadSurd(Fraction(0), Fraction(1), 2), QuadSurd(Fraction(1), Fraction(1), 3))


# radicand classes for the integer-backed arithmetic: 2 also meets 2*1009^2,
# which trial division leaves unextracted
RADICANDS = (2, 3, 5, 2 * 1009**2)
coefficients = st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40)


@st.composite
def surds_over(draw, radicands=RADICANDS):
    return QuadSurd(draw(coefficients), draw(coefficients), draw(st.sampled_from(radicands)))


def same_class(d):
    return (2, 2 * 1009**2) if d in (2, 2 * 1009**2) else (d,)


@given(surds_over(), surds_over())
@settings(max_examples=300, deadline=None)
def test_integer_cmp_matches_decimal_oracle_across_radicands(x, y):
    # for these sizes a nonzero difference is above 1e-41 (a norm bound), far
    # above the oracle's rounding, so the oracle decides every pair
    diff = decimal_of(x, prec=120) - decimal_of(y, prec=120)
    expect = 0 if abs(diff) < Decimal("1e-50") else (1 if diff > 0 else -1)
    assert surd_cmp(x, y) == expect
    assert surd_cmp(y, x) == -expect
    assert (x == y) == (expect == 0)
    if expect == 0:
        assert hash(x) == hash(y)


@given(st.sampled_from((2, 3, 5)).flatmap(
    lambda d: st.tuples(surds_over(same_class(d)), surds_over(same_class(d)))))
@settings(max_examples=200, deadline=None)
def test_integer_field_operations_match_decimal_oracle(pair):
    x, y = pair
    dx, dy = decimal_of(x, prec=120), decimal_of(y, prec=120)
    tolerance = Decimal("1e-50")
    for z, expect in ((x + y, dx + dy), (x - y, dx - dy), (x * y, dx * dy)):
        assert abs(decimal_of(z, prec=120) - expect) <= tolerance * (1 + abs(expect))
    assert (x + y) - y == x and x - y == -(y - x)
    if y == 0:
        with pytest.raises(ZeroDivisionError):
            x / y
        return
    q = x / y
    expect = dx / dy
    assert abs(decimal_of(q, prec=120) - expect) <= tolerance * (1 + abs(expect))
    assert q * y == x
    assert (1 / y) * x == q


@given(coefficients, coefficients, st.sampled_from((2, 3, 5)), st.integers(2, 12))
@settings(max_examples=200, deadline=None)
def test_hash_and_eq_across_square_factor_radicands(a, b, d, k):
    x = QuadSurd(a, b, d)
    for y in (QuadSurd(a, b / k, d * k * k), QuadSurd(a, b / 1009, d * 1009**2)):
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
        assert -x == -y and hash(-x) == hash(-y)
    # a rational surd hashes like its Fraction
    for r in (QuadSurd(a, b, k * k), QuadSurd(a, 0, d), x - b * QuadSurd(0, 1, d)):
        assert r.is_rational() and r == r.as_fraction() and hash(r) == hash(r.as_fraction())


def test_interval_end_text_is_unchanged():
    # digest of repr and to_json for both ends of every I_alpha of depth <= 6 in
    # [-2, 3], recorded when QuadSurd still held Fraction coefficients
    lines = []
    for s in enumerate_slopes(6, -2, 3):
        for end in s.interval():
            lines.append(repr(end) + " " + json.dumps(end.to_json(), sort_keys=True))
    assert len(lines) == 642
    assert lines[0] == 'QuadSurd(-7/2 + 1/2*sqrt(5)) {"a": "-7/2", "b": "1/2", "d": 5}'
    assert lines[321] == 'QuadSurd(2 + -1*sqrt(2)) {"a": "2", "b": "-1", "d": 2}'
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "fa2a67fbbdca489330996b7fba6bb08cccb5663741a5f1e6f8fe2c37f9ef7e7c"


def test_value_is_held_as_integers_in_lowest_terms():
    x = QuadSurd(Fraction(6, 4), Fraction(-9, 12), 8)  # 3/2 - (3/2)sqrt 2 = (3 - 3 sqrt 2)/2
    assert (x._A, x._B, x._C, x.d) == (3, -3, 2, 2)
    assert (x.a, x.b) == (Fraction(3, 2), Fraction(-3, 2))
    y = x / QuadSurd(0, -3, 2)  # (3 - 3 sqrt 2)/(-6 sqrt 2) = (2 - sqrt 2)/4
    assert (y._A, y._B, y._C, y.d) == (2, -1, 4, 2)
    with pytest.raises(AttributeError):
        x.d = 3
    with pytest.raises(TypeError, match="as rationals"):
        QuadSurd(0.5, 0, 2)
