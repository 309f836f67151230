"""The exceptional-slope tree: dyadic addresses, the slope product, intervals.

Exceptional slopes are indexed by dyadic rationals p/2^q.  Integers map to
themselves and the slope at (2a+1)/2^q is the product of the two adjacent
slopes one level up, via the modified mean

    alpha.beta = (alpha+beta)/2 + (D_beta - D_alpha)/(3 + alpha - beta).

Every rational slope lies in exactly one interval I_alpha = (alpha - x_alpha,
alpha + x_alpha); associated_slope finds that alpha by walking down the tree
with exact surd comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import QuadSurd, RationalLike, SurdLike, fraction_str, surd_cmp


class CantorPointError(ValueError):
    """Raised when tree descent exhausts its depth bound without landing.

    Only possible for irrational inputs sitting in the complement of all the
    intervals I_alpha; rationals always land.
    """


def hilbert_poly(x):
    """Euler characteristic polynomial of O(x) on the plane: (x^2 + 3x + 2)/2."""
    if isinstance(x, int):
        x = Fraction(x)
    return (x * x + 3 * x + 2) / 2


@dataclass(frozen=True)
class DyadicAddress:
    """Canonical dyadic fraction p/2^q: q = 0, or p odd."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.q < 0:
            raise ValueError("exponent must be nonnegative")
        p, q = self.p, self.q
        while q > 0 and p % 2 == 0:
            p //= 2
            q -= 1
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, 1 << self.q)

    @classmethod
    def coerce(cls, x) -> "DyadicAddress":
        if isinstance(x, DyadicAddress):
            return x
        if isinstance(x, tuple) and len(x) == 2:
            return cls(int(x[0]), int(x[1]))
        if isinstance(x, int):
            return cls(x, 0)
        if isinstance(x, Fraction):
            q = x.denominator.bit_length() - 1
            if 1 << q != x.denominator:
                raise ValueError(f"{x} is not a dyadic rational")
            return cls(x.numerator, q)
        raise TypeError(f"cannot read {x!r} as a dyadic address")

    def to_json(self) -> dict:
        return {"p": self.p, "q": self.q}


@dataclass(frozen=True)
class ExceptionalSlope:
    """An exceptional slope with its derived invariants.

    rank is the denominator of the slope, discriminant is (1 - 1/rank^2)/2,
    euler is rank*(P(value) - discriminant), and interval_radius is the exact
    half-width x_alpha = 3/2 - sqrt(9 rank^2 - 4)/(2 rank) of I_alpha.
    Twists and duals come from address arithmetic (dual_twist), so code that
    holds a slope never has to find -alpha + k again by tree descent.
    """

    value: Fraction
    address: DyadicAddress
    rank: int
    discriminant: Fraction
    euler: int
    interval_radius: QuadSurd

    def interval(self) -> tuple[QuadSurd, QuadSurd]:
        return (self.value - self.interval_radius, self.value + self.interval_radius)

    def contains(self, x: SurdLike) -> bool:
        left, right = self.interval()
        return surd_cmp(left, x) < 0 and surd_cmp(x, right) < 0

    def dual_twist(self, k: int) -> "ExceptionalSlope":
        """The slope -value + k, the dual of E twisted by O(k).

        The tree is symmetric under x -> -x and x -> x + 1, so the address
        p/2^q goes to (-p + k 2^q)/2^q and the slope is one memo read.
        """
        p, q = self.address.p, self.address.q
        return epsilon((-p + (k << q), q))

    def to_json(self) -> dict:
        left, right = self.interval()
        return {
            "value": fraction_str(self.value),
            "address": self.address.to_json(),
            "rank": self.rank,
            "discriminant": fraction_str(self.discriminant),
            "euler": self.euler,
            "interval": [left.to_json(), right.to_json()],
        }


def _disc_of_value(v: Fraction) -> Fraction:
    r = v.denominator
    return Fraction(r * r - 1, 2 * r * r)


def _slope_value(x) -> Fraction:
    if isinstance(x, ExceptionalSlope):
        return x.value
    return Fraction(x)


def dot(alpha, beta) -> Fraction:
    """The slope product alpha.beta = (alpha+beta)/2 + (D_beta-D_alpha)/(3+alpha-beta)."""
    a = _slope_value(alpha)
    b = _slope_value(beta)
    den = 3 + a - b
    if den == 0:
        raise ValueError("degenerate slope product: 3 + alpha - beta = 0")
    return (a + b) / 2 + (_disc_of_value(b) - _disc_of_value(a)) / den


_MEMO: dict[tuple[int, int], ExceptionalSlope] = {}


def _make_slope(value: Fraction, address: DyadicAddress) -> ExceptionalSlope:
    r = value.denominator
    disc = _disc_of_value(value)
    chi = r * (hilbert_poly(value) - disc)
    assert chi.denominator == 1, f"euler characteristic of {value} not integral"
    radius = QuadSurd(Fraction(3, 2), Fraction(-1, 2 * r), 9 * r * r - 4)
    return ExceptionalSlope(value, address, r, disc, int(chi), radius)


def epsilon(addr) -> ExceptionalSlope:
    """The exceptional slope at a dyadic address; memoized by canonical address.

    Missing ancestors are built from an explicit stack, so deep addresses do
    not recurse.  The memo dict only ever gains value-identical entries for a
    given key, so concurrent readers are safe.
    """
    addr = DyadicAddress.coerce(addr)
    hit = _MEMO.get((addr.p, addr.q))
    if hit is not None:
        return hit
    stack = [addr]
    while stack:
        top = stack[-1]
        key = (top.p, top.q)
        if key in _MEMO:
            stack.pop()
        elif top.q == 0:
            _MEMO[key] = _make_slope(Fraction(top.p), top)
        else:
            a = (top.p - 1) // 2
            parents = [DyadicAddress(a, top.q - 1), DyadicAddress(a + 1, top.q - 1)]
            missing = [x for x in parents if (x.p, x.q) not in _MEMO]
            if missing:
                stack.extend(missing)
            else:
                left, right = (_MEMO[(x.p, x.q)] for x in parents)
                _MEMO[key] = _make_slope(dot(left, right), top)
    return _MEMO[(addr.p, addr.q)]


def parent_pair(alpha) -> tuple[ExceptionalSlope, ExceptionalSlope]:
    """The adjacent pair whose product is alpha; integers k get (k-1, k+1)."""
    if not isinstance(alpha, ExceptionalSlope):
        alpha = epsilon(DyadicAddress.coerce(alpha))
    p, q = alpha.address.p, alpha.address.q
    if q == 0:
        return epsilon((p - 1, 0)), epsilon((p + 1, 0))
    a = (p - 1) // 2
    return epsilon((a, q - 1)), epsilon((a + 1, q - 1))


def interval(alpha) -> tuple[QuadSurd, QuadSurd]:
    """Exact open endpoints of I_alpha."""
    if not isinstance(alpha, ExceptionalSlope):
        alpha = epsilon(DyadicAddress.coerce(alpha))
    return alpha.interval()


def is_adjacent_pair(alpha, beta) -> bool:
    """True when the addresses are consecutive at some common dyadic level."""
    a = alpha.address if isinstance(alpha, ExceptionalSlope) else DyadicAddress.coerce(alpha)
    b = beta.address if isinstance(beta, ExceptionalSlope) else DyadicAddress.coerce(beta)
    q = max(a.q, b.q)
    return abs((a.p << (q - a.q)) - (b.p << (q - b.q))) == 1


def associated_slope(x: SurdLike, max_depth: int = 64) -> ExceptionalSlope:
    """The unique exceptional slope alpha with x in I_alpha, by tree descent."""
    if isinstance(x, QuadSurd) and x.is_rational():
        x = x.as_fraction()
    k = math.floor(x)
    lo = epsilon((k, 0))
    if lo.contains(x):
        return lo
    hi = epsilon((k + 1, 0))
    if hi.contains(x):
        return hi
    a, q = k, 0
    for _ in range(max_depth):
        mid = epsilon((2 * a + 1, q + 1))
        if mid.contains(x):
            return mid
        if surd_cmp(x, mid.value) < 0:
            a, q = 2 * a, q + 1
        else:
            a, q = 2 * a + 1, q + 1
    raise CantorPointError(
        f"no interval found for {x!r} within depth {max_depth}; "
        "the value appears to lie in the Cantor-set complement"
    )


def exceptional_slope_of(value: RationalLike) -> ExceptionalSlope:
    """Look up the ExceptionalSlope whose slope equals value, or raise."""
    value = Fraction(value)
    slope = associated_slope(value)
    if slope.value != value:
        raise ValueError(f"{value} is not an exceptional slope")
    return slope


def enumerate_slopes(depth: int, lo: RationalLike, hi: RationalLike) -> list[ExceptionalSlope]:
    """All exceptional slopes of dyadic depth <= depth with value in [lo, hi], ascending."""
    lo = Fraction(lo)
    hi = Fraction(hi)
    if lo > hi:
        raise ValueError("empty slope range")
    scale = 1 << depth
    out = []
    for p in range(math.floor(lo) * scale, math.ceil(hi) * scale + 1):
        s = epsilon((p, depth))
        if lo <= s.value <= hi:
            out.append(s)
    return out
