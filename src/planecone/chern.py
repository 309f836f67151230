"""Chern character arithmetic on the plane.

Characters are triples (r, c1, ch2) of exact rationals, and everything here is
polynomial arithmetic in them.  The Euler pairing is Riemann-Roch,
chi(E, F) = r r' + 3(r c1' - r' c1)/2 + r ch2' + r' ch2 - c1 c1', and it
answers at rank zero too.  Line bundles, duals, and the characters of
exceptional bundles, (r, c, (c^2 - r^2 + 1)/(2r)) for the slope c/r, also
live here.

A character is held as three ints over one common denominator,
(r, c1, ch2) = (R, C, D)/N with N > 0 and gcd(R, C, D, N) = 1, so sums,
differences, scalar multiples and pairings are integer formulas that end in
one gcd, and two characters are equal exactly when their four ints are.
r, c1 and ch2 are read-only Fraction properties, built when asked for.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import _as_ratio, fraction_str
from .exceptional import _as_slope

__all__ = [
    "ChernCharacter",
    "dual",
    "euler_pairing",
    "exceptional_character",
    "line_bundle",
]


class ChernCharacter:
    """The character (r, c1, ch2), each an int or a Fraction; a float raises TypeError."""

    __slots__ = ("_ints",)

    def __init__(self, r, c1, ch2):
        x = _as_ratio(r), _as_ratio(c1), _as_ratio(ch2)
        n = math.lcm(*(den for _, den in x))
        self._ints = (*(num * (n // den) for num, den in x), n)

    @classmethod
    def _of(cls, r: int, c: int, d: int, n: int = 1) -> "ChernCharacter":
        """The character (r, c, d)/n for ints and n > 0, reduced by one gcd."""
        g = math.gcd(r, c, d, n)
        out = object.__new__(cls)
        out._ints = (r // g, c // g, d // g, n // g)
        return out

    r = property(lambda self: Fraction(self._ints[0], self._ints[3]))
    c1 = property(lambda self: Fraction(self._ints[1], self._ints[3]))
    ch2 = property(lambda self: Fraction(self._ints[2], self._ints[3]))

    def __eq__(self, other):
        if not isinstance(other, ChernCharacter):
            return NotImplemented
        return self._ints == other._ints

    def __hash__(self) -> int:
        return hash(self.astuple())

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        r, c, d, n = self._ints
        rp, cp, dp, m = other._ints
        return ChernCharacter._of(r * m + rp * n, c * m + cp * n, d * m + dp * n, n * m)

    def __sub__(self, other: "ChernCharacter") -> "ChernCharacter":
        return self + -other

    def __neg__(self) -> "ChernCharacter":
        r, c, d, n = self._ints
        return ChernCharacter._of(-r, -c, -d, n)

    def __mul__(self, k) -> "ChernCharacter":
        p, q = _as_ratio(k)
        r, c, d, n = self._ints
        return ChernCharacter._of(p * r, p * c, p * d, q * n)

    __rmul__ = __mul__

    def astuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.r, self.c1, self.ch2)

    def __repr__(self) -> str:
        return "ChernCharacter(%s, %s, %s)" % self.astuple()

    def to_json(self) -> dict:
        return {
            "r": fraction_str(self.r),
            "c1": fraction_str(self.c1),
            "ch2": fraction_str(self.ch2),
        }


def _sum_ints(pairs) -> tuple[int, int, int, int]:
    """The ints (R, C, D, N) of the sum of m ch over the (m, ch) pairs, for int m.

    The sum is (R, C, D)/N, unreduced, with N the product of the characters'
    denominators, and no character is built; it is zero exactly when
    R = C = D = 0.
    """
    r = c = d = 0
    n = 1
    for m, ch in pairs:
        rt, ct, dt, nt = ch._ints
        r, c, d, n = r * nt + m * rt * n, c * nt + m * ct * n, d * nt + m * dt * n, n * nt
    return r, c, d, n


def line_bundle(k) -> ChernCharacter:
    """Character (1, k, k^2/2) of the line bundle of degree k."""
    p, q = _as_ratio(k)
    return ChernCharacter._of(2 * q * q, 2 * p * q, p * p, 2 * q * q)


def euler_pairing(ch_e: ChernCharacter, ch_f: ChernCharacter) -> Fraction:
    """chi(E, F) = r r' + 3(r c1' - r' c1)/2 + r ch2' + r' ch2 - c1 c1' by Riemann-Roch.

    At nonzero ranks it is r r' (P(mu_F - mu_E) - Delta_E - Delta_F).  Over the
    denominators N and N' it is one Fraction with denominator 2NN'.
    """
    return Fraction(*_euler_ratio(ch_e, ch_f))


def _euler_ratio(ch_e: ChernCharacter, ch_f: ChernCharacter) -> tuple[int, int]:
    """euler_pairing(ch_e, ch_f) as its unreduced integer pair, over 2NN' > 0."""
    r, c, d, n = ch_e._ints
    rp, cp, dp, m = ch_f._ints
    num = 2 * r * rp + 3 * (r * cp - rp * c) + 2 * (r * dp + rp * d) - 2 * c * cp
    return num, 2 * n * m


def dual(ch: ChernCharacter) -> ChernCharacter:
    r, c, d, n = ch._ints
    return ChernCharacter._of(r, -c, d, n)


def exceptional_character(alpha) -> ChernCharacter:
    """Character of the exceptional bundle of slope alpha.

    The rank r is the denominator of the slope c/r, and with
    Delta_alpha = (1 - 1/r^2)/2 the character r(1, alpha, alpha^2/2 - Delta_alpha)
    is (r, c, (c^2 - r^2 + 1)/(2r)) in integers.  Each slope's character is
    built once and kept on the slope, in its _character, so it goes when the
    slope leaves the epsilon memo; a ChernCharacter is immutable, so every
    caller that holds the slope shares that one object.
    """
    alpha = _as_slope(alpha)
    ch = alpha._character
    if ch is None:
        r, c = alpha.rank, alpha.value.numerator
        ch = ChernCharacter._of(2 * r * r, 2 * r * c, c * c - r * r + 1, 2 * r)
        object.__setattr__(alpha, "_character", ch)
    return ch
