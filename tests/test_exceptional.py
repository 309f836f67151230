"""Exceptional slopes: the dyadic parametrization and its invariants."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planecone.exceptional as exceptional
from planecone.chern import exceptional_character
from planecone.contfrac import check_exceptional_cf
from planecone.exactnum import QuadSurd
from planecone.exceptional import (
    MAX_DEPTH,
    CantorPointError,
    DyadicAddress,
    ExceptionalSlope,
    associated_slope,
    dot,
    enumerate_slopes,
    epsilon,
    exceptional_slope_of,
    hilbert_poly,
    is_adjacent_pair,
    parent_pair,
)
from planecone.stability import delta

from decimal_oracle import oracle_cmp, times
from sequential_walk import first_decimal_above_golden, sequential_walk

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
    with pytest.raises(ValueError):
        dot(Fraction(-5, 2), Fraction(1, 2))


def dot_by_fractions(a, b):
    """The reference for dot: the modified mean, term by term in Fractions."""
    a, b = Fraction(a), Fraction(b)

    def disc(x):
        return (1 - Fraction(1, x.denominator**2)) / 2

    return (a + b) / 2 + (disc(b) - disc(a)) / (3 + a - b)


@pytest.mark.parametrize("k", [-3, 0, 2])
def test_dot_matches_the_fraction_formula_on_slopes(k):
    slopes = enumerate_slopes(10, k, k + 1)
    assert len(slopes) == 1025
    pairs = list(zip(slopes, slopes[1:]))  # adjacent at level 10
    pairs += list(zip(slopes, slopes[::-1]))
    pairs += [(s, epsilon(k + 2)) for s in slopes]
    for a, b in pairs:
        assert dot(a, b) == dot_by_fractions(a.value, b.value), (a.value, b.value)


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
)
@settings(max_examples=300, deadline=None)
def test_dot_matches_the_fraction_formula_on_rationals(a, b):
    if 3 + a - b == 0:
        with pytest.raises(ValueError):
            dot(a, b)
    else:
        assert dot(a, b) == dot_by_fractions(a, b)


def test_make_slope_rejects_a_value_with_no_integral_euler_characteristic():
    # rank 3 never occurs: chi of 1/3 would be 20/6
    with pytest.raises(ArithmeticError):
        exceptional._make_slope(Fraction(1, 3), DyadicAddress(1, 1))
    with pytest.raises(ArithmeticError):
        exceptional._make_slope(Fraction(7, 4), DyadicAddress(7, 2))


def test_interval_radius_defining_identity():
    # the radius x solves P(-x) = D_alpha + 1/2, so the surd must satisfy it
    for slope in enumerate_slopes(5, Fraction(0), Fraction(2)):
        # x = 3/2 - sqrt(d)/(2r) as its coefficient pair over d = 9r^2 - 4
        r = slope.rank
        d = 9 * r * r - 4
        x = (Fraction(3, 2), Fraction(-1, 2 * r))
        assert slope.interval_radius == QuadSurd(*x, d)
        # P(-x) = (x^2 - 3x + 2)/2
        xx = times(x, x, d)
        p_minus_x = ((xx[0] - 3 * x[0] + 2) / 2, (xx[1] - 3 * x[1]) / 2)
        assert (p_minus_x[0] - slope.discriminant, p_minus_x[1]) == (Fraction(1, 2), 0)
        lo, hi = slope.interval()
        assert oracle_cmp(lo, slope.value) < 0 < oracle_cmp(hi, slope.value)


def test_interval_width_depends_only_on_rank():
    by_rank = {}
    for slope in enumerate_slopes(4, Fraction(0), Fraction(3)):
        by_rank.setdefault(slope.rank, set()).add(slope.interval_radius)
    for radii in by_rank.values():
        assert len(radii) == 1


def test_contains_is_strict():
    e = epsilon(0)
    assert e.side(Fraction(0)) == 0
    assert e.side(Fraction(1, 3)) == 0  # 1/3 < (3 - sqrt 5)/2
    assert e.side(Fraction(2, 5)) != 0
    lo_half, hi_half = exceptional_slope_of(Fraction(1, 2)).interval()
    assert oracle_cmp(lo_half, Fraction(1, 2)) < 0 < oracle_cmp(hi_half, Fraction(1, 2))


def side_by_endpoints(slope, x):
    """The reference for side: x against both ends of I_alpha."""
    lo, hi = slope.interval()
    if oracle_cmp(x, lo) < 0:
        return -1
    return 1 if oracle_cmp(x, hi) > 0 else 0


def convergents(end, count):
    """The first count continued-fraction convergents of an irrational QuadSurd.

    end = a + b sqrt(d) is written (P + sqrt N)/Q with Q | N - P^2, and the
    integer recurrence P' = aQ - P, Q' = (N - P'^2)/Q expands it exactly.
    """
    m = math.lcm(end.a.denominator, end.b.denominator)
    P, Q, N = int(end.a * m), m, int(end.b * m) ** 2 * end.d
    if end.b < 0:
        P, Q = -P, -Q
    P, Q, N = P * abs(Q), Q * abs(Q), N * Q * Q
    s = math.isqrt(N)
    h, h_prev, k, k_prev = 1, 0, 0, 1
    out = []
    for _ in range(count):
        # floor((P + sqrt N)/Q), with sqrt N strictly between s and s + 1
        a = (P + s) // Q if Q > 0 else (-P - s - 1) // -Q
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        out.append(Fraction(h, k))
        P = a * Q - P
        Q = (N - P * P) // Q
    return out


def best_approximations(end, count=14):
    """The two last convergents of end below it and the two last above it."""
    return convergents(end, count)[-4:]


def rational_side_probes(slope, rng):
    v = slope.value
    probes = [v, math.floor(v) - 1, math.floor(v), math.ceil(v) + 1, -v, -v - 1]
    probes += [v + Fraction(rng.randint(-10**6, 10**6), 10**6) for _ in range(8)]
    for k in (1, 2, 5, 12, 40):
        probes += [v + Fraction(1, 10**k), v - Fraction(1, 10**k)]
    for end in slope.interval():
        probes += best_approximations(end)
    return probes


def deep_walk_slopes():
    """The landing slope of a depth-50+ walk and its ancestors of rank over 10^20."""
    todo = [associated_slope(first_decimal_above_golden(42))]
    assert todo[0].address.q >= 50
    out = {}
    while todo:
        slope = todo.pop()
        if slope.rank > 10**20 and slope.address not in out:
            out[slope.address] = slope
            todo.extend(parent_pair(slope))
    return list(out.values())


def test_rational_side_matches_the_interval_endpoints():
    deep = deep_walk_slopes()
    assert len(deep) >= 3
    rng = random.Random(6)
    probes_run = 0
    for slope in enumerate_slopes(6, -2, 3) + deep:
        for x in rational_side_probes(slope, rng):
            assert isinstance(x, (int, Fraction))
            assert slope.side(x) == side_by_endpoints(slope, x), (slope.value, x)
            probes_run += 1
    # each end is approached from both sides by its best approximations
    slope = epsilon((1, 2))
    lo, hi = slope.interval()
    near = best_approximations(hi)
    assert [slope.side(x) for x in sorted(near)] == [0, 0, 1, 1]
    near = best_approximations(lo)
    assert [slope.side(x) for x in sorted(near)] == [-1, -1, 0, 0]
    assert probes_run > 7000


def test_associated_slope_examples():
    assert associated_slope(Fraction(17, 3)).value == 6
    assert associated_slope(Fraction(1, 3) - Fraction(1, 1000)).value == 0
    assert associated_slope(Fraction(19, 6)).value == 3
    assert associated_slope(Fraction(197, 23)).value == Fraction(17, 2)
    assert associated_slope(Fraction(2, 5)).value == Fraction(2, 5)


def test_decimals_above_the_cantor_point_land_ever_deeper():
    # x0 = (3 - sqrt 5)/2, the right end of I_0, is a limit of intervals from
    # above but lies inside none of them, so decimals closing in on it land deeper
    depths = []
    for e in range(5, 54):
        x = first_decimal_above_golden(e)
        q = associated_slope(x).address.q
        for y in (x + 10**6, x - 10**6, -x):
            assert associated_slope(y).address.q == q, (e, y)
        depths.append(q)
    assert depths == sorted(depths)
    assert depths[0] == 6 and depths[-1] == 64


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
    assert oracle_cmp(lo, x) < 0 < oracle_cmp(hi, x)


def test_enumerate_slopes_window_and_order():
    slopes = enumerate_slopes(3, Fraction(0), Fraction(1))
    values = [s.value for s in slopes]
    assert values == sorted(values)
    assert values[0] == 0 and values[-1] == 1
    assert Fraction(5, 13) in values and Fraction(12, 29) in values
    assert len(values) == 9
    # once a bare "negative shift count" from 1 << depth
    with pytest.raises(ValueError, match="depth must be nonnegative, not -1"):
        enumerate_slopes(-1, 0, 1)
    # once an unrelated "unsupported operand type(s) for <<" from 1 << 1.5, and
    # True ran at depth 1
    with pytest.raises(TypeError, match="^depth must be an int, not float$"):
        enumerate_slopes(1.5, 0, 1)
    with pytest.raises(TypeError, match="^depth must be an int, not bool$"):
        enumerate_slopes(True, 0, 1)


def test_associated_slope_reads_max_depth_as_an_int():
    # True once walked as depth 1, 2.5 and "3" failed in range() with an
    # unrelated message, and -1 raised CantorPointError after asking 0 and 1
    x = Fraction(2, 5)
    for bad, kind in ((True, "bool"), (2.5, "float"), ("3", "str"), (None, "NoneType")):
        with pytest.raises(TypeError, match="^max_depth must be an int, not %s$" % kind):
            associated_slope(x, max_depth=bad)
    with pytest.raises(ValueError, match="^max_depth must be nonnegative, not -1$"):
        associated_slope(x, max_depth=-1)
    assert associated_slope(x, max_depth=2).value == x
    with pytest.raises(CantorPointError, match="^no slope between 0 and 1 within depth 1$"):
        associated_slope(x, max_depth=1)
    assert associated_slope(3, max_depth=0).value == 3


def test_is_adjacent_pair():
    # an argument is a slope, an address, or a slope's value; an integer is both
    assert is_adjacent_pair(epsilon(0), epsilon((1, 1)))
    assert is_adjacent_pair(epsilon((1, 2)), epsilon((1, 1)))
    assert is_adjacent_pair(epsilon(0), epsilon((1, 2)))
    assert is_adjacent_pair(0, 1)  # consecutive integers sit at level zero
    assert not is_adjacent_pair(epsilon(0), epsilon((3, 2)))
    assert not is_adjacent_pair(0, 2)


def test_a_number_is_a_slope_value_and_a_pair_is_an_address():
    # once interval(Fraction(1, 4)) gave the ends of I_{2/5}, reading 1/4 as an
    # address, and interval(Fraction(2, 5)) raised "not a dyadic rational"
    two_fifths = epsilon((1, 2))
    assert two_fifths.value == Fraction(2, 5)
    ch = exceptional_character(two_fifths)
    assert (
        exceptional_character(Fraction(2, 5))
        == exceptional_character((1, 2))
        == exceptional_character(DyadicAddress(1, 2))
        == ch
    )
    parents = (epsilon(0), epsilon((1, 1)))
    assert parent_pair(Fraction(2, 5)) == parent_pair((1, 2)) == parent_pair(two_fifths) == parents
    assert parent_pair(3) == parent_pair(Fraction(3)) == (epsilon(2), epsilon(4))
    for read in (exceptional_character, parent_pair):
        with pytest.raises(ValueError, match="1/4 is not an exceptional slope"):
            read(Fraction(1, 4))
        with pytest.raises(TypeError):
            read(0.4)
    assert is_adjacent_pair(Fraction(2, 5), Fraction(1, 2))
    assert is_adjacent_pair((1, 2), Fraction(1, 2))
    assert not is_adjacent_pair(Fraction(2, 5), 1)
    # once dot((0, 0), (1, 0)) raised "cannot read (0, 0) as a rational"
    assert dot((0, 0), (1, 0)) == dot(0, 1) == dot(DyadicAddress(0, 0), epsilon(1))
    assert check_exceptional_cf((1, 2)) == check_exceptional_cf(Fraction(2, 5))
    # dot and the cf flags read any rational as a value, exceptional or not
    assert dot(Fraction(1, 4), 1) == dot(Fraction(1, 4), (1, 0))
    assert check_exceptional_cf(Fraction(1, 4))["terms_in_12"] is False


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


def test_deep_interval_ends_convert_to_float():
    # once raised OverflowError: the radicand 9r^2 - 4 has no float
    x0 = (3 - math.sqrt(5)) / 2
    for end in epsilon((1, 2000)).interval():
        assert math.isclose(float(end), x0)


def _ancestors(p, q):
    """Every address whose slope the product formula needs to reach p/2^q."""
    out = {(p, q)}
    if q > 0:
        a = (p - 1) // 2
        for parent in (DyadicAddress(a, q - 1), DyadicAddress(a + 1, q - 1)):
            out |= _ancestors(parent.p, parent.q)
    return out


@pytest.mark.parametrize("addr", [(2731, 12), (-1365, 12), (7, 0)])
def test_epsilon_on_empty_memo_builds_exactly_its_ancestors(monkeypatch, addr):
    # a miss walks the unit tree and twists what it finds by k = p >> q, so
    # the memo gains the unit ancestors and the slope itself, and no twisted
    # ancestors; it once held the ancestors under floor(p/2^q) instead
    monkeypatch.setattr(exceptional, "_MEMO", {})
    s = epsilon(addr)
    assert s.address == DyadicAddress(*addr)
    p, q = addr
    unit = p - ((p >> q) << q)
    assert set(exceptional._MEMO) == _ancestors(unit, q) | {addr}


def walk_from_floor(monkeypatch, x):
    """The walk associated_slope made before it read the unit tree, on a memo of its own.

    It is the level-by-level walk, kept in the tests, so the check does not
    lean on the production walk it checks.
    """
    with monkeypatch.context() as m:
        m.setattr(exceptional, "_MEMO", {})
        return sequential_walk(math.floor(x), lambda s: s.side(x), MAX_DEPTH)


def test_associated_slope_is_the_walk_from_floor_and_a_twist(monkeypatch):
    rng = random.Random(41)
    xs = [Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4)) for _ in range(60)]
    shallow = enumerate_slopes(4, 0, 3)
    assert len(shallow) == 49
    xs += [s.value for s in shallow]
    xs += [-x for x in xs]
    ks = [0] + [rng.choice((1, -1)) * rng.randrange(10**e) for e in (6, 6, 15, 15)]
    ks += [10**6, -10**6, 10**15, -10**15]
    checked = 0
    for x in xs:
        base = associated_slope(x)
        p, q = base.address.p, base.address.q
        for k in ks:
            y = x + k
            a = associated_slope(y)
            ref = walk_from_floor(monkeypatch, y)
            fields = ("value", "address", "rank", "discriminant", "euler")
            # _twist builds a new twist from base's integers, _make_slope from its value
            made = exceptional._make_slope(base.value + k, a.address)
            got, want = ([getattr(b, f) for f in fields] for b in (a, ref))
            assert got == want == [getattr(made, f) for f in fields], (x, k)
            assert a is epsilon((p + (k << q), q))
            assert delta(y) == hilbert_poly(-abs(y - ref.value)) - ref.discriminant
            checked += 1
    assert checked == 2 * 109 * 9


def test_dyadic_address_rejects_non_integers(monkeypatch):
    # epsilon((1.5, 2)) once returned the slope 2/5, and DyadicAddress(1.5, 2)
    # put float keys into the memo, so epsilon(1).to_json() printed "p": 1.0;
    # epsilon(True) and epsilon((True, 0)) returned the slope 1
    monkeypatch.setattr(exceptional, "_MEMO", {})
    with pytest.raises(TypeError, match="as a dyadic address"):
        epsilon(True)
    for bad in ((1.5, 2), (1, 2.0), (2.0, 0), (True, 0), (1, True), (False, 1)):
        with pytest.raises(TypeError):
            epsilon(bad)
        with pytest.raises(TypeError):
            epsilon(DyadicAddress(*bad))
    assert json.dumps(epsilon(1).to_json()["address"]) == '{"p": 1, "q": 0}'
    epsilon((3, 2))
    assert all(type(p) is int and type(q) is int for p, q in exceptional._MEMO)
