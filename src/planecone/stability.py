"""Existence bounds for semistable sheaves on the plane.

The function delta gives the sharp discriminant bound for a moduli space of
given slope to be nonempty, gamma packages it into a strictly increasing
bijection of the nonnegative rationals, and min_slope inverts gamma at an
integer to find the minimal slope attached to n general points.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .chern import ChernCharacter, discriminant
from .chern import slope as character_slope
from .exactnum import _as_rational, fraction_str
from .exceptional import MAX_DEPTH, ExceptionalSlope, _walk, associated_slope, hilbert_poly

CASE_NON_EXCEPTIONAL = "NonExceptional"
CASE_EXCEPTIONAL_BUNDLE = "ExceptionalBundle"
CASE_TRIANGULAR_MINUS_ONE = "TriangularMinusOne"

# MinSlopeResult.position: mu below, at or above D, the slope with lambda in I_D
CASE_BELOW_DOT = "BelowDot"
CASE_AT_DOT = "AtDot"
CASE_ABOVE_DOT = "AboveDot"


@dataclass(frozen=True)
class MinSlopeResult:
    n: int
    mu: Fraction
    lam: Fraction
    associated: ExceptionalSlope
    case: str
    position: str

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mu": fraction_str(self.mu),
            "lambda": fraction_str(self.lam),
            "alpha": fraction_str(self.associated.value),
            "case": self.case,
        }


def delta(mu) -> Fraction:
    """Sharp lower bound for the discriminant of a stable sheaf of slope mu."""
    mu = _as_rational(mu)
    return _delta(mu, associated_slope(mu))


def _delta(mu: Fraction, a: ExceptionalSlope) -> Fraction:
    """delta(mu) for a caller that already holds the slope a with mu in I_a."""
    return hilbert_poly(-abs(mu - a.value)) - a.discriminant


def gamma(mu) -> Fraction:
    """P(mu) - delta(mu), a strictly increasing bijection on rationals >= 0."""
    mu = _as_rational(mu)
    if mu < 0:
        raise ValueError("gamma is defined on nonnegative slopes")
    return hilbert_poly(mu) - delta(mu)


def gamma_inv(q) -> Fraction:
    """Invert gamma exactly at a nonnegative rational.

    gamma is affine on each half of every interval I_a, with slope a on the
    left half and a + 3 on the right, and gamma(a) = P(a) - 1 + D_a.  So at
    each slope a the walk down the tree solves the affine piece facing q:
    the solution lies in I_a exactly when the answer does, and otherwise on
    the side of I_a where the answer lies.  The walk starts at the integer m
    with gamma(m) = m(m + 3)/2 <= q < gamma(m + 1), and every decision in it
    compares rationals.
    """
    return _gamma_inv(q)[0]


def _gamma_inv(q) -> tuple[Fraction, ExceptionalSlope]:
    """gamma_inv(q) together with the slope whose interval holds it."""
    q = _as_rational(q)
    if q < 0:
        raise ValueError("gamma only takes nonnegative values")

    def branch(a: ExceptionalSlope) -> Fraction:
        """The point where the affine piece of gamma on the half of I_a facing q takes q."""
        g = hilbert_poly(a.value) - 1 + a.discriminant
        if q == g:
            return a.value
        return a.value + (q - g) / (a.value + 3 if q > g else a.value)

    # gamma(m) = m(m + 3)/2 <= q < gamma(m + 1)
    m = (math.isqrt(9 + math.floor(8 * q)) - 3) // 2
    a = _walk(m, lambda s: s.side(branch(s)), MAX_DEPTH)
    mu = branch(a)
    # mu lies in I_a, so this is gamma(mu) without a second walk
    if hilbert_poly(mu) - _delta(mu, a) != q:
        raise ArithmeticError("gamma_inv(%s) = %s fails the round trip" % (q, mu))
    return mu, a


def moduli_nonempty(r: int, mu, Delta) -> bool:
    """Decide nonemptiness of the moduli space with the given invariants."""
    # operator.index rejects 1.5 and 2.0 alike with a TypeError
    r = operator.index(r)
    mu, Delta = _as_rational(mu), _as_rational(Delta)
    if r < 1:
        raise ValueError("rank must be a positive integer")
    if (r * mu).denominator != 1:
        raise ValueError("c1 = r*mu fails to be an integer")
    if (r * (hilbert_poly(mu) - Delta)).denominator != 1:
        raise ValueError("the Euler characteristic fails to be an integer")
    a = associated_slope(mu)
    if Delta >= _delta(mu, a):
        return True
    return a.value == mu and Delta == a.discriminant and r % a.rank == 0


def height(ch: ChernCharacter) -> int:
    """r * r_alpha * (Delta - delta(mu)), an integer for integral characters."""
    if ch.r <= 0:
        raise ValueError("height needs positive rank")
    mu = character_slope(ch)
    a = associated_slope(mu)
    h = ch.r * a.rank * (discriminant(ch) - _delta(mu, a))
    if h.denominator != 1:
        raise ValueError("height of %r is not an integer" % (ch,))
    return int(h)


def min_slope(n: int) -> MinSlopeResult:
    """Minimal slope mu of the effective-cone computation for n points.

    lambda = gamma_inv(n) always satisfies gamma(lambda) = n; the slope drops
    to the left endpoint alpha of its interval exactly when the exceptional
    bundle there has chi/r >= n, and that shortcut firing is what the
    ExceptionalBundle case records.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("n must be an int, not %s" % type(n).__name__)
    if n < 1:
        raise ValueError("n must be a positive integer")
    lam, a = _gamma_inv(Fraction(n))
    if a.value <= lam and Fraction(a.euler, a.rank) >= n:
        mu = a.value
    else:
        mu = lam
    root = math.isqrt(8 * n + 9)
    if root * root == 8 * n + 9:
        case, position = CASE_TRIANGULAR_MINUS_ONE, CASE_BELOW_DOT
        if not mu == lam == a.value:
            raise ArithmeticError("n + 1 = %d is triangular, but mu %s is not alpha" % (n + 1, mu))
    elif mu != lam:
        case, position = CASE_EXCEPTIONAL_BUNDLE, CASE_AT_DOT
    else:
        case = CASE_NON_EXCEPTIONAL
        position = CASE_BELOW_DOT if mu < a.value else CASE_ABOVE_DOT
    return MinSlopeResult(n, mu, lam, a, case, position)


def _min_slope_for(n, what: str) -> MinSlopeResult:
    """min_slope(n) for an int n, or n itself when it is a MinSlopeResult; n must be >= 2."""
    if (n.n if isinstance(n, MinSlopeResult) else n) < 2:
        raise ValueError("the %s is computed for n >= 2" % what)
    return n if isinstance(n, MinSlopeResult) else min_slope(n)
