"""Chern character arithmetic on the plane.

Characters are triples (r, c1, ch2) of exact rationals.  Slope and
discriminant, the Euler characteristic by Riemann-Roch, the asymmetric Euler
pairing, twisting by line bundles, duals, and the characters of exceptional
bundles all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import fraction_str
from .exceptional import _as_slope, hilbert_poly


class ZeroRankError(ValueError):
    """Raised when slope or discriminant is requested at rank zero."""


@dataclass(frozen=True)
class ChernCharacter:
    r: Fraction
    c1: Fraction
    ch2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        object.__setattr__(self, "c1", Fraction(self.c1))
        object.__setattr__(self, "ch2", Fraction(self.ch2))

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(self.r + other.r, self.c1 + other.c1, self.ch2 + other.ch2)

    def __sub__(self, other: "ChernCharacter") -> "ChernCharacter":
        return ChernCharacter(self.r - other.r, self.c1 - other.c1, self.ch2 - other.ch2)

    def __neg__(self) -> "ChernCharacter":
        return ChernCharacter(-self.r, -self.c1, -self.ch2)

    def __mul__(self, k) -> "ChernCharacter":
        k = Fraction(k)
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
    k = Fraction(k)
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
    """chi(E) = r(P(mu) - Delta) by Riemann-Roch."""
    return ch.r * (hilbert_poly(slope(ch)) - discriminant(ch))


def euler_pairing(ch_e: ChernCharacter, ch_f: ChernCharacter) -> Fraction:
    """chi(E, F) = r(E) r(F) (P(mu_F - mu_E) - Delta_E - Delta_F)."""
    mu_gap = slope(ch_f) - slope(ch_e)
    return ch_e.r * ch_f.r * (
        hilbert_poly(mu_gap) - discriminant(ch_e) - discriminant(ch_f)
    )


def twist(ch: ChernCharacter, k) -> ChernCharacter:
    """Character of E(k), i.e. the tensor with the degree-k line bundle."""
    k = Fraction(k)
    return ChernCharacter(ch.r, ch.c1 + k * ch.r, ch.ch2 + k * ch.c1 + k * k * ch.r / 2)


def dual(ch: ChernCharacter) -> ChernCharacter:
    return ChernCharacter(ch.r, -ch.c1, ch.ch2)


def exceptional_character(alpha) -> ChernCharacter:
    """Character of the exceptional bundle of slope alpha.

    The rank is the denominator of the slope, so the character is
    (r, r*alpha, r*(alpha^2/2 - Delta_alpha)).
    """
    alpha = _as_slope(alpha)
    r = alpha.rank
    v = alpha.value
    return ChernCharacter(r, r * v, r * (v * v / 2 - alpha.discriminant))
