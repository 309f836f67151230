"""Exceptional slopes: the dyadic parametrization and its invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecone.exactnum import surd_cmp
from planecone.exceptional import (
    CantorPointError,
    DyadicAddress,
    ExceptionalSlope,
    associated_slope,
    dot,
    enumerate_slopes,
    epsilon,
    exceptional_slope_of,
    hilbert_poly,
    interval,
    is_adjacent_pair,
    parent_pair,
)

# every slope of denominator 2^q for q <= 3, in order
LOW_DEPTH_VALUES = {
    (0, 0): Fraction(0),
    (1, 3): Fraction(5, 13),
    (1, 2): Fraction(2, 5),
    (3, 3): Fraction(12, 29),
    (1, 1): Fraction(1, 2),
    (5, 3): Fraction(17, 29),
    (3, 2): Fraction(3, 5),
    (7, 3): Fraction(8, 13),
    (1, 0): Fraction(1),
}


def test_low_depth_values():
    for (p, q), expected in LOW_DEPTH_VALUES.items():
        assert epsilon((p, q)).value == expected


def test_integer_translation():
    for p, q in LOW_DEPTH_VALUES:
        base = epsilon((p, q)).value
        shifted = epsilon((p + 2**q, q)).value
        assert shifted == base + 1
    assert epsilon(5).value == 5
    assert epsilon(Fraction(7, 2)).value == epsilon((1, 1)).value + 3


def test_address_canonicalization():
    assert DyadicAddress(2, 1) == DyadicAddress(1, 0)
    assert DyadicAddress(4, 2).q == 0
    assert DyadicAddress(6, 2) == DyadicAddress(3, 1)
    with pytest.raises(ValueError):
        DyadicAddress.coerce(Fraction(1, 3))


def test_slope_invariants_at_one_half():
    e = epsilon((1, 1))
    assert e.value == Fraction(1, 2)
    assert e.rank == 2
    assert e.discriminant == Fraction(3, 8)
    assert e.euler == 3


def test_rank_is_denominator_and_discriminant_formula():
    for slope in enumerate_slopes(6, Fraction(0), Fraction(1)):
        assert slope.rank == slope.value.denominator
        assert slope.discriminant == Fraction(1, 2) * (1 - Fraction(1, slope.rank**2))
        chi = slope.rank * (hilbert_poly(slope.value) - slope.discriminant)
        assert chi == slope.euler
        assert chi.denominator == 1


def test_numerator_congruence():
    # rank r admits a slope only when -1 is a square mod r
    for slope in enumerate_slopes(6, Fraction(0), Fraction(1)):
        num = slope.value.numerator
        assert (num * num + 1) % slope.rank == 0


def test_rank_three_never_occurs():
    seen = {s.rank for s in enumerate_slopes(8, Fraction(0), Fraction(1))}
    assert 3 not in seen
    assert {1, 2, 5, 13, 29} <= seen
    with pytest.raises(ValueError):
        exceptional_slope_of(Fraction(17, 3))


def test_dyadic_ranks_grow_like_odd_fibonacci():
    ranks = [epsilon((1, q)).rank for q in range(1, 8)]
    assert ranks == [2, 5, 13, 34, 89, 233, 610]


def test_parent_pair_and_dot_round_trip():
    for q in range(1, 7):
        for p in range(1, 2**q, 2):
            child = epsilon((p, q))
            left, right = parent_pair(child)
            assert dot(left.value, right.value) == child.value
            assert left.address.q < q and right.address.q < q
            assert left.value < child.value < right.value
            rank_product = left.rank * right.rank * (3 + left.value - right.value)
            assert rank_product == child.rank


def test_dot_rejects_degenerate_pair():
    with pytest.raises(ValueError):
        dot(Fraction(0), Fraction(3))


def test_interval_radius_defining_identity():
    # the radius x solves P(-x) = D_alpha + 1/2, so the surd must satisfy it
    for slope in enumerate_slopes(5, Fraction(0), Fraction(2)):
        x = slope.interval_radius
        assert hilbert_poly(-x) - slope.discriminant == Fraction(1, 2)
        lo, hi = slope.interval()
        assert surd_cmp(lo, slope.value) < 0 < surd_cmp(hi, slope.value)


def test_interval_width_depends_only_on_rank():
    by_rank = {}
    for slope in enumerate_slopes(4, Fraction(0), Fraction(3)):
        by_rank.setdefault(slope.rank, set()).add(slope.interval_radius)
    for radii in by_rank.values():
        assert len(radii) == 1


def test_contains_is_strict():
    e = epsilon(0)
    _, hi = e.interval()
    assert e.contains(Fraction(0))
    assert e.contains(Fraction(1, 3))  # 1/3 < (3 - sqrt 5)/2
    assert not e.contains(hi)  # the open interval excludes its endpoint
    assert not e.contains(Fraction(2, 5))
    lo_half, hi_half = interval(Fraction(1, 2))
    assert surd_cmp(lo_half, Fraction(1, 2)) < 0 < surd_cmp(hi_half, Fraction(1, 2))


def test_associated_slope_examples():
    assert associated_slope(Fraction(17, 3)).value == 6
    assert associated_slope(Fraction(1, 3) - Fraction(1, 1000)).value == 0
    assert associated_slope(Fraction(19, 6)).value == 3
    assert associated_slope(Fraction(197, 23)).value == Fraction(17, 2)
    assert associated_slope(Fraction(2, 5)).value == Fraction(2, 5)


def test_associated_slope_cantor_endpoint():
    # the right endpoint of the interval at 0 is a limit of intervals from
    # above but lies inside none of them
    endpoint = epsilon(0).interval()[1]
    with pytest.raises(CantorPointError):
        associated_slope(endpoint, max_depth=24)


@given(
    st.fractions(
        min_value=Fraction(0), max_value=Fraction(4), max_denominator=400
    )
)
@settings(max_examples=150, deadline=None)
def test_associated_slope_containment(x):
    try:
        a = associated_slope(x)
    except CantorPointError:
        return
    lo, hi = a.interval()
    assert surd_cmp(lo, x) < 0 < surd_cmp(hi, x)


def test_enumerate_slopes_window_and_order():
    slopes = enumerate_slopes(3, Fraction(0), Fraction(1))
    values = [s.value for s in slopes]
    assert values == sorted(values)
    assert values[0] == 0 and values[-1] == 1
    assert Fraction(5, 13) in values and Fraction(12, 29) in values
    assert len(values) == 9


def test_is_adjacent_pair():
    # arguments are addresses or slopes, not values
    assert is_adjacent_pair(epsilon(0), epsilon((1, 1)))
    assert is_adjacent_pair(epsilon((1, 2)), epsilon((1, 1)))
    assert is_adjacent_pair(epsilon(0), epsilon((1, 2)))
    assert is_adjacent_pair(0, 1)  # consecutive integers sit at level zero
    assert not is_adjacent_pair(epsilon(0), epsilon((3, 2)))
    assert not is_adjacent_pair(0, 2)


def test_exceptional_slope_of_integer():
    e = exceptional_slope_of(Fraction(6))
    assert isinstance(e, ExceptionalSlope)
    assert e.rank == 1 and e.discriminant == 0 and e.euler == hilbert_poly(6)


def test_to_json_round_trips_key_fields():
    e = epsilon((1, 2))
    js = e.to_json()
    assert js["value"] == "2/5"
    assert js["rank"] == 5
    assert js["address"] == {"p": 1, "q": 2}


def test_dual_twist_matches_lookup_by_value():
    # -x + k by address arithmetic is the slope a tree descent finds for that value
    # every slope in [0, 1] of depth <= 8; with the twists this reaches all
    # slopes of depth <= 8 in [-6, 6]
    addresses = [(0, 0), (1, 0)]
    addresses += [(p, q) for q in range(1, 9) for p in range(1, 1 << q, 2)]
    for addr in addresses:
        s = epsilon(addr)
        for k in range(-5, 6):
            assert s.dual_twist(k) is exceptional_slope_of(-s.value + k), (addr, k)


def test_epsilon_builds_deep_addresses_without_recursion():
    # once raised RecursionError: each missing ancestor was a nested call
    s = epsilon((1, 1200))
    assert s.address == DyadicAddress(1, 1200)
    assert s.rank == s.value.denominator
    assert 0 < s.value < epsilon((1, 1199)).value
