"""Chern character arithmetic: sums, duals, the Euler pairing, exceptional characters."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planecone.exceptional as exceptional
from planecone.bridgeland import kernel_cokernel_slopes
from planecone.chern import (
    ChernCharacter,
    dual,
    euler_pairing,
    exceptional_character,
    line_bundle,
)
from planecone.exceptional import enumerate_slopes, epsilon, hilbert_poly

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=24
)
nonzero_ranks = st.integers(min_value=-8, max_value=8).filter(lambda r: r != 0)


@st.composite
def characters(draw):
    return ChernCharacter(draw(nonzero_ranks), draw(rationals), draw(rationals))


def chi(e):
    """chi(E) = chi(O, E)."""
    return euler_pairing(line_bundle(0), e)


def reference_slope(e):
    """mu = c1/r, nonzero rank only."""
    return e.c1 / e.r


def reference_discriminant(e):
    """Delta = mu^2/2 - ch2/r, nonzero rank only."""
    return reference_slope(e) ** 2 / 2 - e.ch2 / e.r


def test_line_bundle_and_basic_invariants():
    o = line_bundle(0)
    assert o.astuple() == (1, 0, 0)
    assert reference_slope(o) == 0 and reference_discriminant(o) == 0
    assert chi(o) == 1
    o3 = line_bundle(3)
    assert o3.astuple() == (1, 3, Fraction(9, 2))
    assert chi(o3) == 10
    assert chi(line_bundle(-1)) == 0


def test_exceptional_character_at_one_half():
    ch = exceptional_character(Fraction(1, 2))
    assert ch.astuple() == (2, 1, Fraction(-1, 2))
    assert reference_slope(ch) == Fraction(1, 2)
    assert reference_discriminant(ch) == Fraction(3, 8)
    assert chi(ch) == 3


def test_exceptional_character_accepts_slope_objects():
    ch = exceptional_character(epsilon((1, 2)))
    assert ch.r == 5 and ch.c1 == 2
    assert reference_discriminant(ch) == Fraction(12, 25)


def test_a_slope_keeps_its_character_and_a_new_slope_builds_its_own(monkeypatch):
    # once kept by address in a second memo, which a slope built after the
    # epsilon memo was emptied still read
    kept = exceptional_character(epsilon((1, 2)))
    assert exceptional_character(epsilon((1, 2))) is kept is epsilon((1, 2))._character
    monkeypatch.setattr(exceptional, "_MEMO", {})
    fresh = epsilon((1, 2))
    ch = exceptional_character(fresh)
    assert ch is not kept and ch == kept
    assert ch is fresh._character


def test_exceptional_character_reads_a_pair_as_an_address():
    assert exceptional_character((1, 2)) == exceptional_character(Fraction(2, 5))
    with pytest.raises(ValueError, match="not an exceptional slope"):
        exceptional_character(Fraction(1, 4))


def test_ideal_sheaf_character():
    iz = ChernCharacter(1, 0, -7)
    assert chi(iz) == 1 - 7
    assert reference_discriminant(iz) == 7


def reference_pairing(e, f):
    """The slope form chi(E, F) = r r' (P(mu_F - mu_E) - Delta_E - Delta_F), nonzero ranks only."""
    mu_e, mu_f = reference_slope(e), reference_slope(f)
    return e.r * f.r * (hilbert_poly(mu_f - mu_e) - reference_discriminant(e) - reference_discriminant(f))


def reference_char(e):
    """The slope form chi(E) = r (P(mu) - Delta), nonzero rank only."""
    return e.r * (hilbert_poly(reference_slope(e)) - reference_discriminant(e))


def reference_exceptional_character(alpha):
    """r (1, alpha, alpha^2/2 - Delta_alpha) in Fraction arithmetic."""
    r, v = alpha.rank, alpha.value
    return ChernCharacter(r, r * v, r * (v * v / 2 - alpha.discriminant))


@given(characters(), characters())
@settings(max_examples=200, deadline=None)
def test_riemann_roch_matches_the_slope_form(e, f):
    assert euler_pairing(e, f) == reference_pairing(e, f)
    assert chi(e) == reference_char(e)


def test_exceptional_characters_match_the_fraction_form():
    slopes = enumerate_slopes(8, -3, 3)
    assert len(slopes) == 1537
    chars = [exceptional_character(s) for s in slopes]
    for s, ch in zip(slopes, chars):
        ref = reference_exceptional_character(s)
        assert ch == ref and ch.astuple() == ref.astuple()
        assert chi(ch) == reference_char(ch) == s.euler
        assert euler_pairing(ch, ch) == 1
    for ch, nxt in zip(chars, chars[1:]):
        assert euler_pairing(ch, nxt) == reference_pairing(ch, nxt)
        assert euler_pairing(nxt, ch) == reference_pairing(nxt, ch)


def test_euler_characteristic_at_rank_zero():
    # once each raised through the slope and the discriminant at rank zero
    point = ChernCharacter(0, 0, 1)  # O_p
    line = ChernCharacter(0, 1, Fraction(-1, 2))  # O_L = O - O(-1)
    o = line_bundle(0)
    assert line == o - line_bundle(-1)
    assert euler_pairing(o, point) == euler_pairing(point, o) == 1
    assert euler_pairing(point, point) == 0
    assert euler_pairing(o, line) == 1
    assert euler_pairing(line, line) == -1


def test_euler_pairing_examples():
    o = line_bundle(0)
    e_half = exceptional_character(Fraction(1, 2))
    assert euler_pairing(o, e_half) == 3
    assert euler_pairing(e_half, e_half) == 1
    iz = ChernCharacter(1, 0, -25)
    e6 = exceptional_character(Fraction(6))
    # the pairing drives the resolution multiplicity m3 at n = 25
    assert euler_pairing(dual(e6), iz) == 3


def test_pairing_diagonal_of_exceptionals_is_one():
    for addr in [(0, 0), (1, 1), (1, 2), (3, 2), (1, 3), (7, 3)]:
        ch = exceptional_character(epsilon(addr))
        assert euler_pairing(ch, ch) == 1


@given(characters(), characters())
@settings(max_examples=200, deadline=None)
def test_serre_shadow(e, f):
    # E(-3) = E (x) K: (r, c1 - 3r, ch2 - 3c1 + 9r/2)
    e_k = ChernCharacter(e.r, e.c1 - 3 * e.r, e.ch2 - 3 * e.c1 + Fraction(9, 2) * e.r)
    assert euler_pairing(e, f) == euler_pairing(f, e_k)


@given(characters(), characters(), characters())
@settings(max_examples=150, deadline=None)
def test_pairing_bilinear(e, f, g):
    # f + g and e + f may have rank zero, where the pairing answers too
    assert euler_pairing(e, f + g) == euler_pairing(e, f) + euler_pairing(e, g)
    assert euler_pairing(e + f, g) == euler_pairing(e, g) + euler_pairing(f, g)


@given(characters())
@settings(max_examples=100, deadline=None)
def test_dual_involution(e):
    assert dual(dual(e)) == e
    assert reference_slope(dual(e)) == -reference_slope(e)
    assert reference_discriminant(dual(e)) == reference_discriminant(e)


def test_additive_group_operations():
    a = ChernCharacter(2, 1, Fraction(1, 2))
    b = ChernCharacter(1, -1, Fraction(3, 2))
    assert (a + b).astuple() == (3, 0, 2)
    assert (a - b).astuple() == (1, 2, -1)
    assert (-a).astuple() == (-2, -1, Fraction(-1, 2))
    assert (3 * b).astuple() == (3, -3, Fraction(9, 2))
    assert (b * 3) == 3 * b


def test_triad_kernel_cokernel_rank_identity():
    # the kernel/cokernel bundles of a triad have rank 3 r_alpha r_eta - r_beta
    for q in range(1, 6):
        for p in range(0, 2**q, 2):
            triad = kernel_cokernel_slopes(p, q)
            expected = (
                3 * triad.alpha.rank * triad.eta.rank - triad.beta.rank
            )
            assert triad.zeta.rank == expected
            assert triad.omega.rank == expected


def test_to_json_uses_fraction_strings():
    ch = ChernCharacter(2, 1, Fraction(-1, 2))
    assert ch.to_json() == {"r": "2", "c1": "1", "ch2": "-1/2"}


# a rank of zero is drawn too, and every component may be a fraction
any_rationals = st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=24)
triples = st.tuples(any_rationals, any_rationals, any_rationals)


@given(triples, triples, any_rationals)
@settings(max_examples=300, deadline=None)
def test_integer_characters_match_a_fraction_triple_reference(e, f, k):
    """The integer forms against plain Fraction arithmetic on (r, c1, ch2)."""
    (r, c, d), (rp, cp, dp) = e, f
    ce, cf = ChernCharacter(*e), ChernCharacter(*f)
    assert ce.astuple() == e
    assert (ce + cf).astuple() == (r + rp, c + cp, d + dp)
    assert (ce - cf).astuple() == (r - rp, c - cp, d - dp)
    assert (-ce).astuple() == (-r, -c, -d)
    assert (k * ce).astuple() == (ce * k).astuple() == (k * r, k * c, k * d)
    assert dual(ce).astuple() == (r, -c, d)
    assert euler_pairing(ce, cf) == r * rp + 3 * (r * cp - rp * c) / 2 + r * dp + rp * d - c * cp
    assert chi(ce) == r + 3 * c / 2 + d


def test_equal_characters_have_equal_hashes_across_representations():
    pairs = [
        (ChernCharacter(Fraction(4, 2), 0, 0), ChernCharacter(2, 0, 0)),
        (2 * ChernCharacter(Fraction(1, 2), Fraction(1, 4), Fraction(1, 6)),
         ChernCharacter(1, Fraction(1, 2), Fraction(1, 3))),
        (exceptional_character(Fraction(1, 2)), ChernCharacter(2, 1, Fraction(-1, 2))),
        (line_bundle(3) - line_bundle(3), ChernCharacter(0, 0, 0)),
        (dual(line_bundle(Fraction(1, 2))), line_bundle(Fraction(-1, 2))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        # the hash a frozen dataclass of three Fractions gave
        assert hash(a) == hash(a.astuple())
    assert len({a for pair in pairs for a in pair}) == len(pairs)
    assert ChernCharacter(1, 0, 0) != (1, 0, 0)
    assert ChernCharacter(1, 0, 0) != ChernCharacter(1, 0, Fraction(1, 2))


def test_components_are_read_only_fractions():
    ch = ChernCharacter(Fraction(6, 4), 3, -1)
    assert repr(ch) == "ChernCharacter(3/2, 3, -1)"
    assert all(type(x) is Fraction for x in ch.astuple())
    for name in ("r", "c1", "ch2"):
        with pytest.raises(AttributeError):
            setattr(ch, name, 0)
