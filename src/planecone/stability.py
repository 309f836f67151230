"""Existence bounds for semistable sheaves on the plane.

The function delta gives the sharp discriminant bound for a moduli space of
given slope to be nonempty, gamma packages it into a strictly increasing
bijection of the nonnegative rationals, and min_slope inverts gamma at an
integer to find the minimal slope attached to n general points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chern import ChernCharacter, discriminant
from .chern import slope as character_slope
from .exactnum import QuadSurd, fraction_str, surd_cmp
from .exceptional import ExceptionalSlope, associated_slope, epsilon, hilbert_poly

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
    mu = Fraction(mu)
    return _delta(mu, associated_slope(mu))


def _delta(mu: Fraction, a: ExceptionalSlope) -> Fraction:
    """delta(mu) for a caller that already holds the slope a with mu in I_a."""
    return hilbert_poly(-abs(mu - a.value)) - a.discriminant


def gamma(mu) -> Fraction:
    """P(mu) - delta(mu), a strictly increasing bijection on rationals >= 0."""
    mu = Fraction(mu)
    if mu < 0:
        raise ValueError("gamma is defined on nonnegative slopes")
    return hilbert_poly(mu) - delta(mu)


def gamma_inv(q) -> Fraction:
    """Invert gamma exactly at a nonnegative rational.

    The irrational solution of P(x) = q + 1/2 locates the interval I_alpha
    containing the answer; gamma is affine on each half of that interval, so
    the two linear branches are solved and the one landing in its own half
    is kept (the left branch wins when both succeed).
    """
    return _gamma_inv(q)[0]


def _gamma_inv(q) -> tuple[Fraction, ExceptionalSlope]:
    """gamma_inv(q) together with the slope whose interval holds it."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("gamma only takes nonnegative values")
    if q == 0:
        return Fraction(0), epsilon(0)
    den = q.denominator
    xi = QuadSurd(Fraction(-3, 2), Fraction(1, 2 * den), (5 * den + 8 * q.numerator) * den)
    a = associated_slope(xi)
    lo, hi = a.interval()
    t = q - 1 - a.discriminant + hilbert_poly(a.value)
    mu = None
    if a.value != 0:
        cand = t / a.value - 3
        if cand <= a.value and surd_cmp(lo, cand) < 0:
            mu = cand
    if mu is None:
        cand = t / (a.value + 3)
        if cand >= a.value and surd_cmp(cand, hi) < 0:
            mu = cand
    if mu is None:
        raise ArithmeticError("no branch of gamma on I_%s inverts %s" % (a.value, q))
    assert gamma(mu) == q
    return mu, a


def moduli_nonempty(r: int, mu, Delta) -> bool:
    """Decide nonemptiness of the moduli space with the given invariants."""
    mu = Fraction(mu)
    Delta = Fraction(Delta)
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
        assert mu == lam == a.value
    elif mu != lam:
        case, position = CASE_EXCEPTIONAL_BUNDLE, CASE_AT_DOT
    else:
        case = CASE_NON_EXCEPTIONAL
        position = CASE_BELOW_DOT if mu < a.value else CASE_ABOVE_DOT
    return MinSlopeResult(n, mu, lam, a, case, position)
