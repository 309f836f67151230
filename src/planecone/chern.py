"""Chern character arithmetic on the plane.

Characters are triples (r, c1, ch2) of exact rationals, and everything here is
polynomial arithmetic in them.  The Euler pairing is Riemann-Roch,
chi(E, F) = r r' + 3(r c1' - r' c1)/2 + r ch2' + r' ch2 - c1 c1', and
chi(E) = r + 3 c1/2 + ch2 is its value against O; both answer at rank zero.
Slope and discriminant, twisting by line bundles, duals, and the characters of
exceptional bundles, (r, c, (c^2 - r^2 + 1)/(2r)) for the slope c/r, also live
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import _as_rational, fraction_str
from .exceptional import _as_slope


class ZeroRankError(ValueError):
    """Raised when slope or discriminant is requested at rank zero."""


@dataclass(frozen=True)
class ChernCharacter:
    r: Fraction
    c1: Fraction
    ch2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", _as_rational(self.r))
        object.__setattr__(self, "c1", _as_rational(self.c1))
        object.__setattr__(self, "ch2", _as_rational(self.ch2))

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(self.r + other.r, self.c1 + other.c1, self.ch2 + other.ch2)

    def __sub__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(self.r - other.r, self.c1 - other.c1, self.ch2 - other.ch2)

    def __neg__(self) -> "ChernCharacter":
        return ChernCharacter(-self.r, -self.c1, -self.ch2)

    def __mul__(self, k) -> "ChernCharacter":
        k = _as_rational(k)
        return ChernCharacter(k * self.r, k * self.c1, k * self.ch2)

    __rmul__ = __mul__

    def astuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.r, self.c1, self.ch2)

    def __repr__(self) -> str:
        return "ChernCharacter(%s, %s, %s)" % (self.r, self.c1, self.ch2)

    def to_json(self) -> dict:
        return {
            "r": fraction_str(self.r),
            "c1": fraction_str(self.c1),
            "ch2": fraction_str(self.ch2),
        }


def line_bundle(k) -> ChernCharacter:
    """Character (1, k, k^2/2) of the line bundle of degree k."""
    k = _as_rational(k)
    return ChernCharacter(1, k, k * k / 2)


def slope(ch: ChernCharacter) -> Fraction:
    if ch.r == 0:
        raise ZeroRankError("slope is undefined at rank zero")
    return ch.c1 / ch.r


def discriminant(ch: ChernCharacter) -> Fraction:
    """Delta = mu^2/2 - ch2/r, normalized to be rank and twist invariant."""
    if ch.r == 0:
        raise ZeroRankError("discriminant is undefined at rank zero")
    mu = ch.c1 / ch.r
    return mu * mu / 2 - ch.ch2 / ch.r


def euler_char(ch: ChernCharacter) -> Fraction:
    """chi(E) = r + 3 c1/2 + ch2 by Riemann-Roch; at nonzero rank it is r(P(mu) - Delta)."""
    return ch.r + 3 * ch.c1 / 2 + ch.ch2


def euler_pairing(ch_e: ChernCharacter, ch_f: ChernCharacter) -> Fraction:
    """chi(E, F) = r r' + 3(r c1' - r' c1)/2 + r ch2' + r' ch2 - c1 c1' by Riemann-Roch.

    At nonzero ranks it is r r' (P(mu_F - mu_E) - Delta_E - Delta_F).
    """
    r, c, d = ch_e.r, ch_e.c1, ch_e.ch2
    rp, cp, dp = ch_f.r, ch_f.c1, ch_f.ch2
    return r * rp + 3 * (r * cp - rp * c) / 2 + r * dp + rp * d - c * cp


def twist(ch: ChernCharacter, k) -> ChernCharacter:
    """Character of E(k), i.e. the tensor with the degree-k line bundle."""
    k = _as_rational(k)
    return ChernCharacter(ch.r, ch.c1 + k * ch.r, ch.ch2 + k * ch.c1 + k * k * ch.r / 2)


def dual(ch: ChernCharacter) -> ChernCharacter:
    return ChernCharacter(ch.r, -ch.c1, ch.ch2)


def exceptional_character(alpha) -> ChernCharacter:
    """Character of the exceptional bundle of slope alpha.

    The rank r is the denominator of the slope c/r, and with
    Delta_alpha = (1 - 1/r^2)/2 the character r(1, alpha, alpha^2/2 - Delta_alpha)
    is (r, c, (c^2 - r^2 + 1)/(2r)) in integers.
    """
    alpha = _as_slope(alpha)
    r, c = alpha.rank, alpha.value.numerator
    return ChernCharacter(r, c, Fraction(c * c - r * r + 1, 2 * r))
