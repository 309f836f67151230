"""The exceptional-slope tree: dyadic addresses, the slope product, intervals.

Exceptional slopes are indexed by dyadic rationals p/2^q.  Integers map to
themselves and the slope at (2a+1)/2^q is the product of the two adjacent
slopes one level up, via the modified mean

    alpha.beta = (alpha+beta)/2 + (D_beta - D_alpha)/(3 + alpha - beta).

Every rational slope lies in exactly one interval I_alpha = (alpha - x_alpha,
alpha + x_alpha).  One walk down the tree, _walk, serves every search:
epsilon steers it by address, associated_slope by the side of a rational x,
and stability's gamma_inv by the side of a rational branch point.  The
intervals are ordered like their slopes, so on a run of moves to one side
the walk gallops through the memo, asking about the run's slopes 2, 4, 8 ...
levels further down, and a warm walk asks about a few slopes per run rather
than one per level.  Slopes, their products and side(x) are computed in
integers; every argument is an int or a Fraction, and the surd radius x_alpha
is an output, built on first use, so no walk builds a QuadSurd.

Twisting by O(k) maps the tree, its intervals and its addresses onto
themselves: alpha + k sits at p/2^q + k and I_(alpha + k) = I_alpha + k.  So
all three walks go down only the unit tree between 0 and 1, and _walk twists
where it stops by the integer part k (_twist), which builds that one slope
and none of its twisted ancestors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .exactnum import QuadSurd, RationalLike, _as_int, _as_ratio, _as_rational, fraction_str

__all__ = [
    "CantorPointError",
    "DyadicAddress",
    "ExceptionalSlope",
    "associated_slope",
    "dot",
    "enumerate_slopes",
    "epsilon",
    "exceptional_slope_of",
    "hilbert_poly",
    "is_adjacent_pair",
    "parent_pair",
]


# levels below the integers that associated_slope and gamma_inv walk before giving up
MAX_DEPTH = 64


class CantorPointError(ValueError):
    """Raised when tree descent exhausts its depth bound without landing.

    Every argument is rational and lands at some finite depth, so this is
    raised only for a rational whose interval lies below the bound: with
    max_depth=MAX_DEPTH the first 54-digit decimal above (3 - sqrt 5)/2
    already raises.
    """


def hilbert_poly(x):
    """Euler characteristic polynomial of O(x) on the plane: (x^2 + 3x + 2)/2.

    For x = u/v it is (u^2 + 3uv + 2v^2)/(2v^2), built as one Fraction.
    """
    u, v = _as_ratio(x)
    return Fraction(u * u + 3 * u * v + 2 * v * v, 2 * v * v)


@dataclass(frozen=True)
class DyadicAddress:
    """Canonical dyadic fraction p/2^q: q = 0, or p odd; a bool p or q raises TypeError."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if isinstance(self.p, bool) or isinstance(self.q, bool):
            raise TypeError(f"cannot read ({self.p!r}, {self.q!r}) as a dyadic address")
        # operator.index rejects 1.5 and 2.0 alike, so no float reaches the memo keys
        p, q = operator.index(self.p), operator.index(self.q)
        if q < 0:
            raise ValueError("exponent must be nonnegative")
        while q > 0 and p % 2 == 0:
            p //= 2
            q -= 1
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def coerce(cls, x) -> "DyadicAddress":
        if isinstance(x, DyadicAddress):
            return x
        if isinstance(x, tuple) and len(x) == 2:
            return cls(x[0], x[1])
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
    half-width x_alpha = 3/2 - sqrt(9 rank^2 - 4)/(2 rank) of I_alpha.  The
    radius is a QuadSurd built on first use and then kept on the slope, and
    interval() builds the two ends (2c -+ 3r +- sqrt(9r^2 - 4))/(2r) of
    value = c/r directly; both are printed values, and nothing compares them.
    Twists and duals come from address arithmetic (dual_twist), so code that
    holds a slope never has to find -alpha + k again by tree descent.  Where x
    lies against I_alpha is decided by side(x) alone, in integers; the tree
    descent reads it.

    A slope also keeps the walls of its triad, its two parents lo < hi with
    it, in _walls: W(slope, lo) at -1, W(slope, hi) at +1 and W(lo, hi) at 0,
    each put there on first use by bridgeland.exceptional_pair_wall, and its
    Chern character in _character, None until chern.exceptional_character
    builds it; this module can import neither.  So the walls and the
    character live and die with the slope.
    """

    value: Fraction
    address: DyadicAddress
    rank: int
    discriminant: Fraction
    euler: int

    # not a field: the character, set once by chern.exceptional_character
    _character = None

    @cached_property
    def interval_radius(self) -> QuadSurd:
        r = self.rank
        return QuadSurd(Fraction(3, 2), Fraction(-1, 2 * r), 9 * r * r - 4)

    @cached_property
    def _walls(self) -> dict:
        return {}

    def interval(self) -> tuple[QuadSurd, QuadSurd]:
        c, r = self.value.numerator, self.rank
        return (
            QuadSurd(Fraction(2 * c - 3 * r, 2 * r), Fraction(1, 2 * r), 9 * r * r - 4),
            QuadSurd(Fraction(2 * c + 3 * r, 2 * r), Fraction(-1, 2 * r), 9 * r * r - 4),
        )

    def side(self, x: RationalLike) -> int:
        """-1, 0 or 1 as the int or Fraction x lies left of, inside or right of I_alpha."""
        return self._side_of(*_as_ratio(x))

    def _side_of(self, u: int, v: int) -> int:
        """side(u/v) for ints u and v > 0, which need not be coprime, in integers.

        With value = c/r and w = ur - cv, u/v - value = w/(rv), and
        |u/v - value| < x_alpha reads v sqrt(9r^2 - 4) < t for t = 3rv - 2|w|,
        that is t > 0 and (9r^2 - 4) v^2 < t^2.  The ends of I_alpha are
        irrational, so no rational meets them.  Each of w, t and v scales with
        (u, v), so both tests are homogeneous.
        """
        c, r = self.value.numerator, self.rank
        w = u * r - c * v
        if w == 0:
            return 0
        t = 3 * r * v - 2 * abs(w)
        if t > 0 and (9 * r * r - 4) * v * v < t * t:
            return 0
        return 1 if w > 0 else -1

    def dual_twist(self, k: int) -> "ExceptionalSlope":
        """The slope -value + k, the dual of E twisted by O(k).

        The tree is symmetric under x -> -x and x -> x + 1, so the address
        p/2^q goes to (-p + k 2^q)/2^q, canonical again, and the slope is one
        memo read.  A miss is one read of the unit tree plus one twist.
        """
        p, q = self.address.p, self.address.q
        return _epsilon_at(-p + (k << q), q)

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


def _slope_value(x) -> Fraction:
    """A slope's value; a DyadicAddress or (p, q) by epsilon, an int or Fraction as it is."""
    if isinstance(x, ExceptionalSlope):
        return x.value
    if isinstance(x, (DyadicAddress, tuple)):
        return epsilon(x).value
    return _as_rational(x)


def dot(alpha, beta) -> Fraction:
    """The slope product alpha.beta = (alpha+beta)/2 + (D_beta-D_alpha)/(3+alpha-beta).

    D_x is (1 - 1/rank^2)/2 for x of denominator rank.  With alpha = c/r and
    beta = d/s, den = 3rs + cs - dr is rs(3 + alpha - beta) and the product is
    ((cs + dr) den + s^2 - r^2) / (2rs den), reduced once.
    """
    a = _slope_value(alpha)
    b = _slope_value(beta)
    c, r = a.numerator, a.denominator
    d, s = b.numerator, b.denominator
    den = 3 * r * s + c * s - d * r
    if den == 0:
        raise ValueError("degenerate slope product: 3 + alpha - beta = 0")
    return Fraction((c * s + d * r) * den + s * s - r * r, 2 * r * s * den)


_MEMO: dict[tuple[int, int], ExceptionalSlope] = {}


def _make_slope(value: Fraction, address: DyadicAddress) -> ExceptionalSlope:
    # for value = c/r, chi = r (P(value) - D) = (c^2 + 3cr + r^2 + 1)/(2r)
    c, r = value.numerator, value.denominator
    chi, rem = divmod(c * c + 3 * c * r + r * r + 1, 2 * r)
    if rem != 0:
        raise ArithmeticError(f"euler characteristic of {value} not integral")
    return ExceptionalSlope(value, address, r, Fraction(r * r - 1, 2 * r * r), chi)


def _walk(k: int, choose, max_depth: int) -> ExceptionalSlope:
    """Walk down the unit tree to where choose stops, and return that slope twisted by k.

    choose(slope) is asked about unit slopes.  It returns 0 to stop at slope,
    or a negative or positive number to go on left or right of it, and it
    must be the side of one fixed target less k: of x - k for
    associated_slope, of the unit address for epsilon, and of gamma_inv's
    answer less m, whichever branch point steers it.  The walk asks about 0,
    then about 1 only if 0 is rejected, and then about the slope between the
    two neighbours lo and hi that it holds at level q, read from the memo or
    built as their product.  So it builds exactly the unit ancestors of the
    slope where it stops, and that slope's twist.  It raises CantorPointError,
    naming k and k + 1, rather than go below level max_depth, and builds
    nothing below it.  Each new slope costs one
    integer product and one integer Euler characteristic; when choose steers
    by side of a rational, every level is decided in integers and the walk
    builds no QuadSurd.

    After a move left at level q the walk would go on asking lo + 2^-t at
    t = q + 1, q + 2, ... for as long as the target stays left (after a move
    right, hi - 2^-t), so it gallops along that run through the memo.  It
    asks about the run's slope 2 levels below the last one it moved to, then
    4, 8, ... levels below, while the memo holds it and t <= max_depth; after
    the first answer from the other side it halves the step at each probe,
    down to the next level.  A jump is sound because the intervals are
    disjoint and ordered like their slopes: a target left of I_(lo + 2^-t)
    lies left of every interval the jump skips, so the walk goes on from
    (lo, lo + 2^-t) as the level-by-level walk would.  A probe only reads the
    memo, and an absent slope ends the gallop, so the walk builds nothing the
    level-by-level walk would not.
    """
    ends = []
    for p in (0, 1):
        end = _MEMO.get((p, 0))
        if end is None:
            end = _MEMO[(p, 0)] = _make_slope(Fraction(p), DyadicAddress(p, 0))
        if choose(end) == 0:
            return _twist(end, k)
        ends.append(end)
    lo, hi = ends
    a, q = 0, 0
    while q < max_depth:
        q += 1
        p = 2 * a + 1
        mid = _MEMO.get((p, q))
        if mid is None:
            mid = _MEMO[(p, q)] = _make_slope(dot(lo, hi), DyadicAddress(p, q))
        side = choose(mid)
        if side == 0:
            return _twist(mid, k)
        if side > 0:
            lo, a = mid, p
        else:
            hi, a = mid, p - 1
        step, doubling = 2, True
        while step > 1 and q + step <= max_depth:
            # the run's slope at level q + step: hi - 2^-t going right, lo + 2^-t going left
            p = ((a + 1) << step) - 1 if side > 0 else (a << step) + 1
            far = _MEMO.get((p, q + step))
            if far is None:
                break
            probe = choose(far)
            if probe == 0:
                return _twist(far, k)
            if (probe > 0) == (side > 0):
                if side > 0:
                    lo, a = far, p
                else:
                    hi, a = far, p - 1
                q += step
            else:
                doubling = False
            step = step * 2 if doubling else step // 2
    raise CantorPointError("no slope between %d and %d within depth %d" % (k, k + 1, max_depth))


def epsilon(addr) -> ExceptionalSlope:
    """The exceptional slope at a dyadic address p/2^q; memoized by canonical address.

    A pair (p, q) of plain ints with q >= 0 goes straight to _epsilon_at, so
    a memo hit reduces it in ints, reads the memo once and builds no
    DyadicAddress.  Any other argument, a DyadicAddress, an int, a dyadic
    Fraction or a pair of other types, is read by DyadicAddress.coerce, which
    raises on a bool, a float or a negative q, and then read the same way.
    """
    if type(addr) is tuple and len(addr) == 2:
        p, q = addr
        if type(p) is int and type(q) is int and q >= 0:
            return _epsilon_at(p, q)
    addr = DyadicAddress.coerce(addr)
    return _epsilon_at(addr.p, addr.q)


def _twist(s: ExceptionalSlope, k: int) -> ExceptionalSlope:
    """The slope s.value + k at address p/2^q + k: a memo read, or one new slope stored.

    A new twist of s = c/r is (c + k r)/r, with s's rank and discriminant and
    chi = chi_s + k c + r k(k + 3)/2: one Fraction, its value, and no divmod.
    """
    p, q = s.address.p + (k << s.address.q), s.address.q
    hit = _MEMO.get((p, q))
    if hit is None:
        c, r = s.value.numerator, s.rank
        chi = s.euler + k * c + r * (k * (k + 3) // 2)
        hit = _MEMO[(p, q)] = ExceptionalSlope(
            Fraction(c + k * r, r), DyadicAddress(p, q), r, s.discriminant, chi
        )
    return hit


def _epsilon_at(p: int, q: int) -> ExceptionalSlope:
    """epsilon((p, q)) for ints p and q >= 0: the one memo read of an address.

    The address is reduced to canonical form in ints, so a hit is one dict
    read and builds no DyadicAddress.  A miss with k = floor(p/2^q) walks
    down the unit tree towards u/2^q, u = p - k 2^q, steered by comparing
    u/2^q with each address it asks about, and builds the missing unit
    ancestors; the walk asks at most q + 2 slopes, fewer where it gallops
    along a run the memo holds, and does not recurse.  _walk twists that
    slope by k, so the memo holds the unit tree plus each twisted slope asked
    for, and no twisted ancestors.  The memo only ever gains value-identical
    entries for a given key, so concurrent readers are safe.
    """
    while q and not p & 1:
        p, q = p >> 1, q - 1
    hit = _MEMO.get((p, q))
    if hit is not None:
        return hit
    k = p >> q
    u = p - (k << q)
    return _walk(k, lambda s: u - (s.address.p << (q - s.address.q)), q)


def _as_slope(x) -> ExceptionalSlope:
    """A slope as it is, a DyadicAddress or (p, q) by epsilon, an int or Fraction by value."""
    if isinstance(x, ExceptionalSlope):
        return x
    if isinstance(x, (DyadicAddress, tuple)):
        return epsilon(x)
    if isinstance(x, (int, Fraction)):
        return exceptional_slope_of(x)
    raise TypeError(f"cannot read {x!r} as an exceptional slope")


def parent_pair(alpha) -> tuple[ExceptionalSlope, ExceptionalSlope]:
    """The adjacent pair whose product is alpha; integers k get (k-1, k+1)."""
    alpha = _as_slope(alpha)
    p, q = alpha.address.p, alpha.address.q
    if q == 0:
        return _epsilon_at(p - 1, 0), _epsilon_at(p + 1, 0)
    a = (p - 1) // 2
    return _epsilon_at(a, q - 1), _epsilon_at(a + 1, q - 1)


def is_adjacent_pair(alpha, beta) -> bool:
    """True when the addresses are consecutive at some common dyadic level."""
    a, b = _as_slope(alpha).address, _as_slope(beta).address
    q = max(a.q, b.q)
    return abs((a.p << (q - a.q)) - (b.p << (q - b.q))) == 1


def associated_slope(x: RationalLike, max_depth: int = MAX_DEPTH) -> ExceptionalSlope:
    """The unique exceptional slope alpha with the int or Fraction x in I_alpha.

    With x = u/v and k = floor(x), the walk goes down the unit tree, steered
    by the side of x - k = w/v, w = u - kv, in integers at each slope it
    asks about, and _walk twists the slope it lands on by k; x is in I_alpha
    exactly when x - k is in I_(alpha - k).  A walk that lands at level q
    asks about q + 2 slopes on an empty memo; on a warm one it gallops along
    each run of moves to one side (see _walk), so a decimal near
    (3 - sqrt 5)/2 that lands below level 60 asks about 9 to 18.  max_depth
    is an int, read by _as_int, and a negative one raises ValueError.
    Raises CantorPointError, naming k and k + 1, when x's interval lies
    deeper than max_depth levels below the integers, as for decimals of 54 or
    more digits just above (3 - sqrt 5)/2.
    """
    max_depth = _as_int(max_depth, "max_depth")
    if max_depth < 0:
        raise ValueError("max_depth must be nonnegative, not %d" % max_depth)
    u, v = _as_ratio(x)
    k, w = divmod(u, v)
    return _walk(k, lambda s: s._side_of(w, v), max_depth)


def exceptional_slope_of(value: RationalLike) -> ExceptionalSlope:
    """Look up the ExceptionalSlope whose slope equals value, or raise."""
    value = _as_rational(value)
    slope = associated_slope(value)
    if slope.value != value:
        raise ValueError(f"{value} is not an exceptional slope")
    return slope


def enumerate_slopes(depth: int, lo: RationalLike, hi: RationalLike) -> list[ExceptionalSlope]:
    """All exceptional slopes of dyadic depth <= depth with value in [lo, hi], ascending."""
    depth, lo, hi = _as_int(depth, "depth"), _as_rational(lo), _as_rational(hi)
    if depth < 0:
        raise ValueError("depth must be nonnegative, not %d" % depth)
    if lo > hi:
        raise ValueError("empty slope range")
    scale = 1 << depth
    out = []
    for p in range(math.floor(lo) * scale, math.ceil(hi) * scale + 1):
        s = epsilon((p, depth))
        if lo <= s.value <= hi:
            out.append(s)
    return out
