"""Even-length continued fractions and the exceptional structure flags."""

from fractions import Fraction
from itertools import groupby
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planecone.exceptional as exceptional
from planecone.contfrac import ContinuedFraction, cf_expand_even, check_exceptional_cf
from planecone.exceptional import _slope_value, enumerate_slopes, epsilon
from planecone.verify import run_suite


def terms_of(x):
    return cf_expand_even(Fraction(x)).terms


def test_known_expansions():
    assert terms_of(Fraction(1, 2)) == (1, 1)
    assert terms_of(Fraction(5, 13)) == (2, 1, 1, 2)
    assert terms_of(Fraction(12, 29)) == (2, 2, 2, 2)
    assert terms_of(Fraction(8, 13)) == (1, 1, 1, 1, 1, 1)
    assert terms_of(Fraction(17, 29)) == (1, 1, 2, 2, 1, 1)
    assert terms_of(Fraction(3, 5)) == (1, 1, 1, 1)
    assert terms_of(Fraction(2, 5)) == (2, 2)


def test_integer_part_split():
    cf = cf_expand_even(Fraction(17, 6))
    assert cf.integer_part == 2
    assert cf.value() == Fraction(17, 6)
    cf = cf_expand_even(Fraction(-3, 2))
    assert cf.integer_part == -2
    assert cf.value() == Fraction(-3, 2)


def test_zero_has_empty_expansion():
    cf = cf_expand_even(Fraction(0))
    assert cf.terms == ()
    assert cf.value() == 0


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(30), max_denominator=10**6))
@settings(max_examples=400, deadline=None)
def test_round_trip_and_even_length(x):
    cf = cf_expand_even(x)
    assert cf.value() == x
    assert len(cf.terms) % 2 == 0
    assert all(t >= 1 for t in cf.terms)


@given(st.fractions(min_value=Fraction(0), max_value=Fraction(1), max_denominator=10**4))
@settings(max_examples=300, deadline=None)
def test_convergent_determinant_identity(x):
    cf = cf_expand_even(x)
    conv = cf.convergents
    for i in range(1, len(conv)):
        p0, q0 = conv[i - 1]
        p1, q1 = conv[i]
        assert q1 * p0 - q0 * p1 == (-1) ** (i + 1) or q1 * p0 - q0 * p1 == -((-1) ** (i + 1))
        assert abs(q1 * p0 - q0 * p1) == 1


@given(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=500))
@settings(max_examples=200, deadline=None)
def test_palindrome_iff_mirror_convergent(x):
    # for [0; a1..ak] the word is a palindrome exactly when the continuant
    # identity p_k = q_{k-1} holds
    cf = cf_expand_even(x)
    if not cf.terms:
        return
    p_last = cf.convergents[-1][0]
    q_prev = cf.convergents[-2][1]
    assert (cf.terms == cf.terms[::-1]) == (p_last == q_prev)


def test_exceptional_flags_all_true_on_samples():
    for slope in enumerate_slopes(6, Fraction(0), Fraction(1)):
        report = check_exceptional_cf(slope)
        assert all(report.values()), (slope.value, report)
    assert set(report) == {
        "palindrome",
        "terms_in_12",
        "ones_blocks_even",
        "interior_twos_blocks_even",
    }


def test_flags_use_fractional_part():
    shifted = check_exceptional_cf(Fraction(7, 2))
    plain = check_exceptional_cf(Fraction(1, 2))
    assert shifted == plain


def test_negative_controls():
    report = check_exceptional_cf(Fraction(1, 3))  # [0;2,1]? -> (3,1) even form
    assert not all(report.values())
    report = check_exceptional_cf(Fraction(3, 10))  # terms include 3
    assert not report["terms_in_12"]
    report = check_exceptional_cf(Fraction(5, 7))  # [0;1,2,2] -> odd ones block
    assert not all(report.values())


def test_interior_twos_rule_ignores_boundary():
    # 12/29 = [0;2,2,2,2]: boundary twos, interior block of length 2
    report = check_exceptional_cf(Fraction(12, 29))
    assert report["interior_twos_blocks_even"]
    # 2/5 = [0;2,2]: interior is empty
    assert check_exceptional_cf(Fraction(2, 5))["interior_twos_blocks_even"]


def test_str_rendering():
    assert str(cf_expand_even(Fraction(5, 13))) == "[0;2,1,1,2]"
    assert str(cf_expand_even(Fraction(2))) == "[2]"


def test_epsilon_values_satisfy_all_flags_deeper():
    for q in range(1, 9):
        slope = epsilon((1, q))
        assert all(check_exceptional_cf(slope).values())


def reference_expand_even(x):
    """The floor recursion on Fractions that cf_expand_even once ran, kept as a reference."""
    x = Fraction(x)
    a0 = floor(x)
    frac = x - a0
    terms = []
    while frac:
        frac = 1 / frac
        a = floor(frac)
        terms.append(a)
        frac -= a
    if len(terms) % 2:
        terms[-1] -= 1
        terms.append(1)
    ps = [1, a0]
    qs = [0, 1]
    for a in terms:
        ps.append(a * ps[-1] + ps[-2])
        qs.append(a * qs[-1] + qs[-2])
    return ContinuedFraction(a0, tuple(terms), tuple(zip(ps[1:], qs[1:])))


def test_integer_euclid_matches_the_fraction_recursion_on_slopes():
    slopes = enumerate_slopes(9, 0, 1)
    assert len(slopes) == 513
    for slope in slopes:
        assert cf_expand_even(slope.value) == reference_expand_even(slope.value), slope.value


@given(st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**9))
@settings(max_examples=400, deadline=None)
def test_integer_euclid_matches_the_fraction_recursion(x):
    assert cf_expand_even(x) == reference_expand_even(x)
    assert cf_expand_even(x.numerator) == reference_expand_even(x.numerator)


@pytest.mark.parametrize(
    "fn",
    [cf_expand_even, check_exceptional_cf],
    ids=lambda fn: fn.__name__,
)
def test_a_float_is_not_read_as_a_rational(fn):
    # once each answered for the float 0.5 as for 1/2
    with pytest.raises(TypeError, match="as a rational"):
        fn(0.5)


def reference_expand(num, den):
    """The list-building integer Euclid that check_exceptional_cf once read, kept as a reference.

    It builds the convergent lists and a ContinuedFraction, which the flags
    never read; check_exceptional_cf now reads the terms alone.
    """
    a0, rem = divmod(num, den)
    terms = []
    u, v = den, rem
    while v:
        a, rem = divmod(u, v)
        terms.append(a)
        u, v = v, rem
    if len(terms) % 2:
        terms[-1] -= 1
        terms.append(1)
    ps = [1, a0]
    qs = [0, 1]
    for a in terms:
        ps.append(a * ps[-1] + ps[-2])
        qs.append(a * qs[-1] + qs[-2])
    assert (ps[-1], qs[-1]) == (num, den)
    return ContinuedFraction(a0, tuple(terms), tuple(zip(ps[1:], qs[1:])))


def reference_check(alpha):
    """The four flags on the reference expansion of alpha's fractional part, blocks by groupby."""
    value = _slope_value(alpha)
    cf = reference_expand(value.numerator % value.denominator, value.denominator)
    terms = cf.terms

    def blocks_even(word, symbol):
        return all(len(list(run)) % 2 == 0 for t, run in groupby(word) if t == symbol)

    return {
        "palindrome": terms == terms[::-1],
        "terms_in_12": all(t in (1, 2) for t in terms),
        "ones_blocks_even": blocks_even(terms, 1),
        "interior_twos_blocks_even": blocks_even(terms[1:-1], 2),
    }


def test_the_terms_only_check_matches_the_list_building_reference(monkeypatch):
    # an empty memo, so the 4,097 slopes of level <= 12 leave the shared one as it was
    monkeypatch.setattr(exceptional, "_MEMO", {})
    slopes = enumerate_slopes(12, 0, 1)
    assert len(slopes) == 4097
    twists = [epsilon((s.address.p + (k << s.address.q), s.address.q))
              for s in slopes[::97] for k in (-3, -1, 2, 5)]
    others = [Fraction(1, 3), Fraction(3, 10), Fraction(7, 2), Fraction(5, 7), 3, Fraction(-8, 13)]
    for x in slopes + twists + others:
        assert check_exceptional_cf(x) == reference_check(x), x


def test_a_warm_cf_suite_builds_no_continued_fraction(monkeypatch):
    run_suite("cf", 9)
    built = []
    original = ContinuedFraction.__init__

    def counted(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(ContinuedFraction, "__init__", counted)
    assert all(r.passed for r in run_suite("cf", 9))
    assert built == []
    assert cf_expand_even(Fraction(5, 13)).terms == (2, 1, 1, 2) and len(built) == 1
