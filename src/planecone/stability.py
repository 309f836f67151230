"""Existence bounds for semistable sheaves on the plane.

The function delta gives the sharp discriminant bound for a moduli space of
given slope to be nonempty, gamma packages it into a strictly increasing
bijection of the nonnegative rationals, and min_slope inverts gamma at an
integer to find the minimal slope attached to n general points.

Where mu lies against the slope D with lambda in I_D is decided once, by the
sign of the integer s = chi(E_D) - n r_D = chi(E_D (x) I_Z): mu is below D
when s > 0, at D when s = 0 and above it when s < 0, and mu drops from lambda
to D exactly when s = 0.  min_slope computes s, reads mu and the case off its
sign, and hands it over as MinSlopeResult.s; the resolution reads its case
and terms off that field, and nothing computes s again.

The arithmetic is in integers, with a Fraction built only for an answer.  At
an exceptional slope a = c/r, gamma(a) = (r chi_a - 1)/r^2, so gamma_inv's
branch point for q = u/v at the twist of a unit slope is an integer pair that
steers the unit-tree walk unreduced (see _gamma_inv); delta at mu = u/v is
(w^2 - 3wvr + (r^2 + 1)v^2)/(2v^2r^2) with w = |ur - cv|; and min_slope's
test chi_a/r >= n reads chi_a >= n r.  gamma_inv's round trip is that delta
numerator again: gamma(x/y) = u/v at the unreduced answer x/y is one integer
identity, so the answer is the only Fraction it builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import _as_int, _as_ratio, _as_rational, fraction_str
from .exceptional import MAX_DEPTH, ExceptionalSlope, _walk, associated_slope, hilbert_poly

__all__ = [
    "CASE_EXCEPTIONAL_BUNDLE",
    "CASE_NON_EXCEPTIONAL",
    "CASE_TRIANGULAR_MINUS_ONE",
    "MinSlopeResult",
    "delta",
    "gamma",
    "gamma_inv",
    "min_slope",
]

CASE_NON_EXCEPTIONAL = "NonExceptional"
CASE_EXCEPTIONAL_BUNDLE = "ExceptionalBundle"
CASE_TRIANGULAR_MINUS_ONE = "TriangularMinusOne"


@dataclass(frozen=True)
class MinSlopeResult:
    """The minimal slope mu for n points, with lambda = gamma_inv(n) and D = associated.

    lambda lies in I_D, and s = chi(E_D) - n r_D = chi(E_D (x) I_Z) places mu
    against D: below when s > 0, at D when s = 0 and above when s < 0.  case
    is one of the CASE_* names of this module.
    """

    n: int
    mu: Fraction
    lam: Fraction
    associated: ExceptionalSlope
    case: str
    s: int

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
    """delta(mu) for a caller that already holds the slope a with mu in I_a.

    With mu = u/v, a = c/r and w = |ur - cv|, P(-|mu - a|) - D_a is
    (w^2 - 3wvr + (r^2 + 1)v^2)/(2v^2r^2), built as one Fraction.
    """
    u, v, r = mu.numerator, mu.denominator, a.rank
    return Fraction(_delta_numerator(u, v, a), 2 * v * v * r * r)


def _delta_numerator(u: int, v: int, a: ExceptionalSlope) -> int:
    """w^2 - 3wvr + (r^2 + 1)v^2, w = |ur - cv|: 2v^2r^2 delta(u/v) for u/v in I_a and v > 0.

    It is homogeneous of degree 2 in (u, v), so the pair need not be reduced.
    """
    r = a.rank
    w = abs(u * r - a.value.numerator * v)
    return w * w - 3 * w * v * r + (r * r + 1) * v * v


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
    each slope a the walk down the tree asks about, it solves the affine
    piece facing q: the solution lies in I_a exactly when the answer does,
    and otherwise on the side of I_a where the answer lies, for every a.  So
    the walk steers by the side of one target and may gallop along a run of
    memo slopes.  It walks the unit tree and solves at each unit slope a the
    piece of a + m, for the integer m with gamma(m) = m(m + 3)/2 <= q <
    gamma(m + 1), and every decision in it compares integers.
    """
    return _gamma_inv(q)[0]


def _branch(t: int, v: int, a: ExceptionalSlope, m: int) -> tuple[int, int]:
    """The branch point of q = u/v at the slope a + m, less m, for t = u - v m(m + 3)/2.

    For a = c/r, chi_(a + m) = chi_a + m c + r m(m + 3)/2, and t holds the last term;
    less m, the point is (c v s + w, v r s), not reduced, with w and s of a + m.
    """
    c, r = a.value.numerator, a.rank
    w = r * (t * r - v * (a.euler + m * c)) + v
    if w == 0:
        return c, r
    s = c + (m + 3) * r if w > 0 else c + m * r
    return c * v * s + w, v * r * s


def _gamma_inv(q) -> tuple[Fraction, ExceptionalSlope]:
    """gamma_inv(q) together with the slope whose interval holds it, in integers.

    For a = c/r, chi = chi(E_a) = r(P(a) - D_a) and D_a = (1 - 1/r^2)/2,
    gamma(a) = P(a) - 1 + D_a = chi/r + 2 D_a - 1 = (r chi - 1)/r^2.  So for
    q = u/v, q - gamma(a) = w/(v r^2) with w = u r^2 - v(r chi - 1).  The
    piece of gamma facing q has slope s/r, s = c + 3r if w > 0 and s = c
    otherwise, and it takes q at a + (q - gamma(a)) r/s = (c v s + w)/(v r s);
    s is 0 only at a = 0 with q < gamma(0) = 0, which no q >= 0 reaches.  side
    is homogeneous in (u, v) for v > 0, so each level steers by that pair
    unreduced, and only the answer becomes a Fraction.

    I_(a + m) = I_a + m, so the walk asks about unit slopes a and steers by the
    branch point at a + m less m, with t = u - v m(m + 3)/2 computed once; the
    memo gains no twisted slope but the answer, which _walk twists by m.

    The round trip is one integer identity on the unreduced answer
    x/y = _branch(u, v, a, 0), y > 0.  It lies in I_a, so gamma(x/y) =
    P(x/y) - delta(x/y) without a second walk, and with w = |xr - cy|
    gamma(x/y) = u/v reads
    v (r^2 (x^2 + 3xy + 2y^2) - (w^2 - 3wyr + (r^2 + 1)y^2)) = 2y^2r^2 u.
    """
    u, v = _as_ratio(q)
    if u < 0:
        raise ValueError("gamma only takes nonnegative values")
    # gamma(m) = m(m + 3)/2 <= q < gamma(m + 1)
    m = (math.isqrt(9 + 8 * u // v) - 3) // 2
    t = u - v * (m * (m + 3) // 2)
    a = _walk(m, lambda s: s._side_of(*_branch(t, v, s, m)), MAX_DEPTH)
    x, y = _branch(u, v, a, 0)
    mu = Fraction(x, y)
    r2 = a.rank * a.rank
    if v * (r2 * (x * x + 3 * x * y + 2 * y * y) - _delta_numerator(x, y, a)) != 2 * y * y * r2 * u:
        raise ArithmeticError("gamma_inv(%s) = %s fails the round trip" % (q, mu))
    return mu, a


def _as_n(n) -> int:
    """A number of points n >= 1 as an int; a bool, a float or a string raises TypeError."""
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError("n must be a positive integer")
    return n


def min_slope(n: int) -> MinSlopeResult:
    """Minimal slope mu of the effective-cone computation for n points.

    lambda = gamma_inv(n) always satisfies gamma(lambda) = n and lies in I_D.
    The sign of s = chi(E_D) - n r_D places mu against D: below when s > 0,
    at D when s = 0, where the exceptional bundle has chi/r = n and the slope
    drops from lambda > D to D (the ExceptionalBundle case), and above when
    s < 0.  For r_D > 1, lambda < D reads n r_D^2 < r_D chi - 1, that is
    s > 0; for r_D = 1, lambda = D exactly when n + 1 is triangular, and there
    s = 1.  The one cross-check against the rationals, lambda <= D exactly when
    s > 0, raises ArithmeticError.  The result carries s, which the resolution
    of n reads.
    """
    n = _as_n(n)
    lam, a = _gamma_inv(n)
    s = a.euler - n * a.rank
    if (s > 0) != (lam <= a.value):
        raise ArithmeticError("n=%d: s = %d puts lambda %s on the wrong side of D" % (n, s, lam))
    mu = a.value if s == 0 else lam
    root = math.isqrt(8 * n + 9)
    if root * root == 8 * n + 9:
        case = CASE_TRIANGULAR_MINUS_ONE
        if not mu == lam == a.value:
            raise ArithmeticError("n + 1 = %d is triangular, but mu %s is not alpha" % (n + 1, mu))
    else:
        case = CASE_EXCEPTIONAL_BUNDLE if s == 0 else CASE_NON_EXCEPTIONAL
    return MinSlopeResult(n, mu, lam, a, case, s)
