"""Wall geometry in the stability half-plane: centers, radii, nesting, SVG."""

import random
from fractions import Fraction

import pytest

import planecone.bridgeland as bridgeland
from planecone.bridgeland import (
    KIND_SEMICIRCLE,
    KIND_VERTICAL,
    Wall,
    bridgeland_from_mori,
    collapsing_wall,
    exceptional_pair_wall,
    kernel_cokernel_slopes,
    nested,
    render_walls,
    wall_between,
)
from planecone.chern import ChernCharacter, exceptional_character, line_bundle
from planecone.exactnum import QuadSurd
from planecone.exceptional import dot, enumerate_slopes, epsilon, hilbert_poly
from planecone.stability import delta

import counting
from decimal_oracle import times


def test_wall_between_anchor():
    w = wall_between(ChernCharacter(1, 0, -2), ChernCharacter(1, -1, Fraction(1, 2)))
    assert w.kind == KIND_SEMICIRCLE
    assert w.center_s == Fraction(-5, 2)
    assert w.radius_sq == Fraction(9, 4)


def test_wall_between_vertical_for_equal_slopes():
    a = ChernCharacter(1, 2, 0)
    b = ChernCharacter(2, 4, -1)
    w = wall_between(a, b)
    assert w.kind == KIND_VERTICAL
    assert w.vertical_s == 2


def test_wall_between_error_cases():
    a = ChernCharacter(1, 2, 2)
    with pytest.raises(ValueError):
        wall_between(a, 3 * a)
    # equal slope and discriminant but not proportional: empty locus
    b = ChernCharacter(2, 4, 4)
    with pytest.raises(ValueError):
        wall_between(a, b)


def test_collapsing_wall_anchors():
    expectations = {
        2: (Fraction(-5, 2), Fraction(9, 4)),
        4: (Fraction(-3), Fraction(1)),
        7: (Fraction(-39, 10), Fraction(121, 100)),
        10: (Fraction(-9, 2), Fraction(1, 4)),
        25: (Fraction(-43, 6), Fraction(49, 36)),
    }
    for n, (center, radius_sq) in expectations.items():
        w = collapsing_wall(n)
        assert w.kind == KIND_SEMICIRCLE
        assert (w.center_s, w.radius_sq) == (center, radius_sq), n
    assert collapsing_wall(50).center_s == Fraction(-463, 46)


def test_collapsing_wall_radius_relation():
    for n in range(2, 80):
        w = collapsing_wall(n)
        assert w.radius_sq == w.center_s**2 - 2 * n


def test_exceptional_pair_wall_anchors():
    w = exceptional_pair_wall(0, Fraction(1, 2))
    assert (w.center_s, w.radius_sq) == (Fraction(-1, 2), Fraction(1, 4))
    w = exceptional_pair_wall(0, Fraction(2, 5))
    assert (w.center_s, w.radius_sq) == (Fraction(-1), Fraction(1))
    w = exceptional_pair_wall(0, Fraction(5, 13))
    assert w.radius_sq == Fraction(20449, 16900)
    w = exceptional_pair_wall(Fraction(2, 5), Fraction(1, 2))
    assert (w.center_s, w.radius_sq) == (Fraction(3, 2), Fraction(1, 4))


def test_exceptional_pair_wall_reads_values_and_addresses():
    by_value = exceptional_pair_wall(Fraction(2, 5), Fraction(1, 2))
    assert exceptional_pair_wall((1, 2), (1, 1)) == by_value
    assert exceptional_pair_wall(epsilon((1, 2)), Fraction(1, 2)) == by_value
    with pytest.raises(ValueError, match="not an exceptional slope"):
        exceptional_pair_wall(0, Fraction(1, 4))


def test_exceptional_pair_wall_argument_order_irrelevant():
    a, b = Fraction(5, 13), Fraction(2, 5)
    w1 = exceptional_pair_wall(a, b)
    w2 = exceptional_pair_wall(b, a)
    assert (w1.center_s, w1.radius_sq) == (w2.center_s, w2.radius_sq)
    with pytest.raises(ValueError):
        exceptional_pair_wall(a, a)


def test_anchored_wall_touches_anchor_line_only_for_line_bundles():
    # a wall through the character of slope mu, discriminant D satisfies
    # rho^2 = (center - mu)^2 - 2 D, so it meets s = mu only when D = 0
    o = line_bundle(0)
    w = wall_between(o, exceptional_character(Fraction(1, 2)))
    assert (w.center_s - 0) ** 2 - w.radius_sq == 0
    e25 = exceptional_character(Fraction(2, 5))
    w = wall_between(e25, exceptional_character(Fraction(1, 2)))
    gap_sq = (w.center_s - Fraction(2, 5)) ** 2
    assert gap_sq - w.radius_sq == 2 * Fraction(12, 25)


def test_nested_with_touching_walls_at_reference():
    w_half = exceptional_pair_wall(0, Fraction(1, 2))
    w_fifth = exceptional_pair_wall(0, Fraction(2, 5))
    assert nested(w_half, w_fifth, 0) is True
    assert nested(w_fifth, w_half, 0) is False
    assert nested(w_half, w_half, 0) is False


def test_nested_rejects_opposite_sides():
    left = exceptional_pair_wall(0, Fraction(1, 2))  # center -1/2
    right = exceptional_pair_wall(Fraction(2, 5), Fraction(1, 2))  # center 3/2
    with pytest.raises(ValueError):
        nested(left, right, Fraction(1, 2))


def test_nested_rejects_crossing_reference():
    wall = collapsing_wall(2)  # center -5/2, radius 3/2
    with pytest.raises(ValueError):
        nested(wall, wall, Fraction(-5, 2))


def test_center_order_matches_radius_order_for_shared_anchor():
    # walls anchored at the same character on the same side nest by center
    rng = random.Random(20260819)
    anchors = [line_bundle(0), exceptional_character(Fraction(1, 2))]
    others = [
        exceptional_character(s)
        for s in (Fraction(2, 5), Fraction(5, 13), Fraction(12, 29), Fraction(1))
    ] + [ChernCharacter(1, 0, -n) for n in range(2, 12)]
    for anchor in anchors:
        mu = Fraction(anchor.c1, anchor.r)
        disc = mu * mu / 2 - Fraction(anchor.ch2, anchor.r)
        left, right = [], []
        for other in others:
            try:
                w = wall_between(anchor, other)
            except ValueError:
                continue
            if w.kind != KIND_SEMICIRCLE or w.is_empty():
                continue
            assert (w.center_s - mu) ** 2 - w.radius_sq == 2 * disc
            (left if w.center_s < mu else right).append(w)
        for family, inner_has_greater_center in ((left, True), (right, False)):
            if len(family) < 2:
                continue
            for _ in range(120):
                w1, w2 = rng.sample(family, 2)
                if w1.center_s == w2.center_s:
                    continue
                if (w1.center_s > w2.center_s) == inner_has_greater_center:
                    inner, outer = w1, w2
                else:
                    inner, outer = w2, w1
                assert inner.radius_sq < outer.radius_sq
                assert nested(inner, outer, mu)


def test_mori_coordinate_round_trip():
    for x in [Fraction(-5, 2), Fraction(0), Fraction(17, 6)]:
        assert bridgeland_from_mori(x + Fraction(3, 2)) == x
    assert bridgeland_from_mori(0) == Fraction(-3, 2)


def test_chain_radii_approach_limit():
    # iterating the slope product against a fixed left anchor drives the
    # radius up to the exact limit value 5/4 without reaching it
    for anchor_addr in [(0, 0), (1, 1), (1, 2)]:
        alpha = epsilon(anchor_addr)
        beta = epsilon((2 * anchor_addr[0] + 1, anchor_addr[1] + 1))
        radii = []
        current = beta.value
        for _ in range(7):
            w = exceptional_pair_wall(alpha.value, current)
            radii.append(w.radius_sq)
            current = dot(alpha.value, current)
        assert all(radii[i] < radii[i + 1] for i in range(len(radii) - 1))
        assert all(r < Fraction(5, 4) for r in radii)
        # x_alpha = 3/2 - sqrt(d)/(2r) as its coefficient pair over d = 9r^2 - 4
        r = alpha.rank
        d = 9 * r * r - 4
        x = (Fraction(3, 2), Fraction(-1, 2 * r))
        assert alpha.interval_radius == QuadSurd(*x, d)
        # x_alpha is a root of x^2 - 3x + 1/r^2, so 1/x = r^2 (3 - x)
        inverse = (r * r * (3 - x[0]), -r * r * x[1])
        assert times(x, inverse, d) == (1, 0)
        ratio = tuple((Fraction(1, 2) - alpha.discriminant) * c for c in inverse)
        # (x/2)^2 - P(-x) + ratio^2, with P(-x) = (x^2 - 3x + 2)/2
        xx, rr = times(x, x, d), times(ratio, ratio, d)
        limit = (
            xx[0] / 4 - (xx[0] - 3 * x[0] + 2) / 2 + rr[0],
            xx[1] / 4 - (xx[1] - 3 * x[1]) / 2 + rr[1],
        )
        assert limit == (Fraction(5, 4), 0)


def test_adjacent_pair_walls_stay_below_five_fourths():
    slopes = enumerate_slopes(5, Fraction(0), Fraction(1))
    for lo, hi in zip(slopes, slopes[1:]):
        w = exceptional_pair_wall(lo.value, hi.value)
        assert w.radius_sq < Fraction(5, 4), (lo.value, hi.value)


def test_triad_balances_hold():
    for p, q in [(0, 1), (2, 2), (2, 1), (0, 3), (6, 3)]:
        triad = kernel_cokernel_slopes(p, q)
        assert triad.balance_first, (p, q)
        assert triad.balance_second, (p, q)
        assert triad.beta.value == dot(triad.alpha.value, triad.eta.value)


def test_triad_branch_relations():
    # p = 0 mod 4: the cokernel side composes back to eta
    t = kernel_cokernel_slopes(0, 2)
    assert dot(t.alpha.value, t.omega.value) == t.eta.value
    # p = 2 mod 4: the kernel side composes back to alpha
    t = kernel_cokernel_slopes(2, 2)
    assert dot(t.zeta.value, t.eta.value) == t.alpha.value


def test_triad_anchor_values():
    t = kernel_cokernel_slopes(2, 1)
    assert (t.alpha.value, t.beta.value, t.eta.value) == (1, Fraction(3, 2), 2)
    assert t.hom_alpha_beta == 3 and t.hom_beta_eta == 3
    t = kernel_cokernel_slopes(0, 1)
    assert (t.zeta.value, t.omega.value) == (-1, 2)


def test_triad_rejects_odd_p():
    with pytest.raises(ValueError):
        kernel_cokernel_slopes(1, 2)
    with pytest.raises(ValueError):
        kernel_cokernel_slopes(0, 0)


@pytest.mark.parametrize(
    "p, q, message",
    [
        (0, True, "q must be an int, not bool"),
        (True, 1, "p must be an int, not bool"),
        (0, 1.0, "q must be an int, not float"),
        (2.0, 1, "p must be an int, not float"),
        ("0", 1, "p must be an int, not str"),
    ],
)
def test_triad_p_and_q_are_ints(p, q, message):
    # once (0, True) returned a TriadSlopes whose q was True, and (True, 1)
    # raised "p must be even"
    with pytest.raises(TypeError, match="^%s$" % message):
        kernel_cokernel_slopes(p, q)


def test_render_walls_anchor_arc():
    doc = render_walls([collapsing_wall(2)])
    assert "<svg" in doc and "</svg>" in doc
    assert "M -1 0 A 1.5 1.5 0 0 0 -4 0" in doc
    assert doc == render_walls([collapsing_wall(2)])  # byte-for-byte deterministic


def test_render_walls_includes_extra_pairs_and_axis():
    extra = exceptional_pair_wall(0, Fraction(1, 2))
    doc = render_walls([collapsing_wall(4), extra])
    assert doc.count("<path") == 2
    assert "line" in doc
    doc_again = render_walls([collapsing_wall(4), extra])
    assert doc == doc_again


def test_render_walls_empty_wall_becomes_comment():
    from planecone.bridgeland import Wall

    empty = Wall.semicircle(Fraction(1), Fraction(-1, 4))
    doc = render_walls([collapsing_wall(2), empty])
    assert "omitted empty wall" in doc


def test_wall_to_json():
    w = collapsing_wall(25)
    assert w.to_json() == {
        "kind": KIND_SEMICIRCLE,
        "center": "-43/6",
        "radius_sq": "49/36",
    }
    from planecone.bridgeland import Wall

    v = Wall.vertical(Fraction(2))
    assert v.to_json() == {"kind": KIND_VERTICAL, "s": "2"}


def test_delta_consistency_of_collapsing_radius():
    # for non-exceptional mu the radius squared is 2 delta(mu) + 1/4
    w = collapsing_wall(2)
    assert w.radius_sq == 2 * delta(Fraction(1)) + Fraction(1, 4)
    w = collapsing_wall(25)
    assert w.radius_sq == 2 * delta(Fraction(17, 3)) + Fraction(1, 4)


@pytest.mark.parametrize("n", [2, 11])  # BelowDot and AboveDot
def test_collapsing_wall_radius_failure_raises_arithmetic_error(monkeypatch, n):
    # once an assert, so an AssertionError that vanished under python -O
    counting.empty_memos(monkeypatch.setattr)
    true_delta = bridgeland._delta
    monkeypatch.setattr(bridgeland, "_delta", lambda mu, a: true_delta(mu, a) + 1)
    with pytest.raises(ArithmeticError, match="radius"):
        collapsing_wall(n)


def fraction_closed_forms(a, b):
    """The pair wall's closed center and adjacent-pair radius in Fraction arithmetic.

    exceptional_pair_wall once checked its wall against these; it now compares
    integer cross products, and this is kept as the reference.
    """
    ratio = (b.discriminant - a.discriminant) / (a.value - b.value)
    gap = -abs(a.value - b.value)
    return (a.value + b.value) / 2 + ratio, (gap / 2) ** 2 - hilbert_poly(gap) + ratio * ratio


def test_pair_walls_meet_the_fraction_closed_forms():
    slopes = enumerate_slopes(5, -2, 2)
    # consecutive slopes of one level are adjacent; two apart they are not
    for a, b in zip(slopes, slopes[1:]):
        center, radius_sq = fraction_closed_forms(a, b)
        for x, y in ((a, b), (b, a)):
            wall = exceptional_pair_wall(x, y)
            assert (wall.center_s, wall.radius_sq) == (center, radius_sq)
    for a, b in zip(slopes, slopes[2:]):
        assert exceptional_pair_wall(a, b).center_s == fraction_closed_forms(a, b)[0]


def moved_walls(monkeypatch, dc, dr):
    """Make wall_between answer a wall whose center and radius^2 are off by dc and dr."""
    true = bridgeland.wall_between

    def moved(ch1, ch2):
        wall = true(ch1, ch2)
        return Wall.semicircle(wall.center_s + dc, wall.radius_sq + dr)

    counting.walls(monkeypatch.setattr, call=moved)


@pytest.mark.parametrize(
    "dc, dr, match",
    [(Fraction(1, 10**9), 0, "closed center"), (0, Fraction(1, 10**9), "closed radius")],
)
def test_a_pair_wall_off_its_closed_forms_raises(monkeypatch, dc, dr, match):
    counting.empty_memos(monkeypatch.setattr)
    moved_walls(monkeypatch, dc, dr)
    with pytest.raises(ArithmeticError, match=match):
        exceptional_pair_wall(epsilon((1, 2)), epsilon((1, 1)))


@pytest.mark.parametrize("n", [2, 11, 12])  # BelowDot, AboveDot and AtDot
@pytest.mark.parametrize(
    "dc, dr, match",
    [(Fraction(1, 10**9), 0, "centered"), (0, Fraction(1, 10**9), "numerical wall")],
)
def test_a_collapsing_wall_off_its_closed_forms_raises(monkeypatch, n, dc, dr, match):
    counting.empty_memos(monkeypatch.setattr)
    moved_walls(monkeypatch, dc, dr)
    with pytest.raises(ArithmeticError, match=match):
        collapsing_wall(n)
