"""Quadratic surds as printed values: normal form, equality and hash, float and JSON.

Equality is exact and checked against a high-precision Decimal oracle.
"""

import hashlib
import json
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecone.exactnum import (
    QuadSurd,
    _as_rational,
    _extract_square,
    fraction_str,
    parse_fraction,
)
from planecone.exceptional import enumerate_slopes

from decimal_oracle import decimal_of


fractions_st = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
small_roots = st.integers(min_value=0, max_value=600)


@st.composite
def surds(draw):
    return QuadSurd(draw(fractions_st), draw(fractions_st), draw(small_roots))


def test_normalization_folds_perfect_squares():
    assert QuadSurd(1, 2, 9) == Fraction(7)
    assert QuadSurd(1, 2, 9).b == 0
    assert QuadSurd(0, 1, 18) == QuadSurd(0, 3, 2)
    assert QuadSurd(5, 0, 7) == Fraction(5)
    assert QuadSurd(5, 3, 0) == Fraction(5)
    assert QuadSurd(0, Fraction(2, 3), 45) == QuadSurd(0, 2, 5)


def test_equality_and_hash_agree_with_normal_form():
    x = QuadSurd(Fraction(1, 2), Fraction(1, 2), 8)
    y = QuadSurd(Fraction(1, 2), 1, 2)
    assert x == y
    assert hash(x) == hash(y)
    assert not QuadSurd(0, 1, 5) == Fraction(2)


def test_a_bool_is_not_a_radicand():
    # once QuadSurd(0, 1, True) was QuadSurd(1)
    with pytest.raises(TypeError, match="^radicand must be an int, not bool$"):
        QuadSurd(0, 1, True)


@given(surds())
@settings(max_examples=200, deadline=None)
def test_float_matches_decimal_oracle(x):
    oracle = decimal_of(x, prec=80)
    assert abs(Decimal(float(x)) - oracle) < Decimal("1e-9") * (1 + abs(oracle))


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
    for bad in (0.5, "1/2", Decimal("0.5"), QuadSurd(0, 1, 2)):
        with pytest.raises(TypeError, match="as a rational"):
            _as_rational(bad)


def test_to_json_shape():
    x = QuadSurd(Fraction(-3, 2), Fraction(1, 26), 1517)
    js = x.to_json()
    assert js == {"a": "-3/2", "b": "1/26", "d": 1517}


def test_hash_agrees_with_eq_across_unextracted_squares():
    # 1009 is past the trial divisors, so its square stays in the radicand
    x = QuadSurd(Fraction(0), Fraction(1), 2 * 1009**2)
    y = QuadSurd(Fraction(0), Fraction(1009), 2)
    assert x.d != y.d and x == y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1
    minus_x = QuadSurd(Fraction(0), Fraction(-1), 2 * 1009**2)
    minus_y = QuadSurd(Fraction(0), Fraction(-1009), 2)
    assert hash(minus_x) == hash(minus_y)


# radicand classes for equality: 2 also meets 2*1009^2, which trial division
# leaves unextracted
RADICANDS = (2, 3, 5, 2 * 1009**2)
coefficients = st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40)


@st.composite
def surds_over(draw, radicands=RADICANDS):
    return QuadSurd(draw(coefficients), draw(coefficients), draw(st.sampled_from(radicands)))


@given(surds_over(), surds_over())
@settings(max_examples=300, deadline=None)
def test_eq_matches_decimal_oracle_across_radicands(x, y):
    # for these sizes a nonzero difference is above 1e-41 (a norm bound), far
    # above the oracle's rounding, so the oracle decides every pair
    diff = decimal_of(x, prec=120) - decimal_of(y, prec=120)
    equal = abs(diff) < Decimal("1e-50")
    assert (x == y) == equal
    assert (y == x) == equal
    if equal:
        assert hash(x) == hash(y)


@given(coefficients, coefficients, st.sampled_from((2, 3, 5)), st.integers(2, 12))
@settings(max_examples=200, deadline=None)
def test_hash_and_eq_across_square_factor_radicands(a, b, d, k):
    x = QuadSurd(a, b, d)
    for y in (QuadSurd(a, b / k, d * k * k), QuadSurd(a, b / 1009, d * 1009**2)):
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    for y in (QuadSurd(-a, -b / k, d * k * k), QuadSurd(-a, -b / 1009, d * 1009**2)):
        negated = QuadSurd(-a, -b, d)
        assert negated == y and hash(negated) == hash(y)
    # a rational surd hashes like its Fraction
    for r in (QuadSurd(a, b, k * k), QuadSurd(a, 0, d), QuadSurd(a, b, 0)):
        assert r.b == 0 and r == r.a and hash(r) == hash(r.a)


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


def sieve_primes(limit):
    """The primes up to limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(limit + 1) if sieve[i]]


PRIMES_TO_1000 = sieve_primes(1000)


def sieve_extract_square(d):
    """The reference: trial division by the primes up to 1000 only."""
    m = 1
    for p in PRIMES_TO_1000:
        if p * p > d:
            break
        while d % (p * p) == 0:
            d //= p * p
            m *= p
    s = math.isqrt(d)
    return (m * s, 1) if s * s == d else (m, d)


def seeded_radicands():
    """0..20000, 9r^2 - 4 for seeded r < 10^5, and seeded products with square factors."""
    rng = random.Random(24)
    yield from range(20001)
    for _ in range(2000):
        r = rng.randrange(1, 10**5)
        yield 9 * r * r - 4
    for factor in (36, 997**2, 1009**2, 2**40):
        for _ in range(250):
            yield factor * rng.randrange(1, 10**6)


def test_trial_division_by_every_integer_matches_the_prime_sieve():
    # a composite divisor's square cannot divide once its primes' squares are out
    for d in seeded_radicands():
        assert _extract_square(d) == sieve_extract_square(d), d


def test_value_is_held_as_integers_in_lowest_terms():
    x = QuadSurd(Fraction(6, 4), Fraction(-9, 12), 8)  # 3/2 - (3/2)sqrt 2 = (3 - 3 sqrt 2)/2
    assert (x._A, x._B, x._C, x.d) == (3, -3, 2, 2)
    assert (x.a, x.b) == (Fraction(3, 2), Fraction(-3, 2))
    y = QuadSurd(Fraction(1, 2), Fraction(-1, 4), 2)  # (2 - sqrt 2)/4
    assert (y._A, y._B, y._C, y.d) == (2, -1, 4, 2)
    with pytest.raises(AttributeError):
        x.d = 3
    with pytest.raises(TypeError, match="as a rational"):
        QuadSurd(0.5, 0, 2)
