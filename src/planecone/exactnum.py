"""Exact scalars: arbitrary-precision rationals and quadratic surds (A + B*sqrt(d))/C.

Rationals are fractions.Fraction throughout the package.  QuadSurd adds a single
square root of a nonnegative integer, which is all the irrationality the slope
arithmetic ever needs.  A QuadSurd holds its value as (A + B*sqrt(d))/C in
Python ints, with C > 0 and gcd(A, B, C) = 1, so its arithmetic and its
comparisons are integer formulas; a rational operand enters as its numerator
and denominator.  Comparisons between surds over different radicands are
decided by sign-tracked squaring over exact integers; no floating point is used
anywhere in a correctness path.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]
SurdLike = Union[int, Fraction, "QuadSurd"]


def _as_rational(x: RationalLike) -> Fraction:
    """An int or a Fraction as a Fraction, a Fraction as it is; anything else raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot read {x!r} as a rational")


def _small_primes(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return tuple(i for i in range(limit + 1) if sieve[i])


_PRIMES = _small_primes(1000)


@functools.lru_cache(maxsize=4096)
def _extract_square(d: int) -> tuple[int, int]:
    """Return (m, d') with d = m^2 * d', pulling out small square factors.

    Memoized: the slope arithmetic meets each radicand, one per rank, many times.
    """
    m = 1
    for p in _PRIMES:
        pp = p * p
        if pp > d:
            break
        while d % pp == 0:
            d //= pp
            m *= p
    s = math.isqrt(d)
    if s * s == d:
        return m * s, 1
    return m, d


def _pair_sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integers a, b and nonnegative d."""
    if b == 0 or d == 0:
        return -1 if a < 0 else (1 if a > 0 else 0)
    if a == 0:
        return -1 if b < 0 else 1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: |a| vs |b|*sqrt(d), squared
    t = a * a - b * b * d
    s = -1 if t < 0 else (1 if t > 0 else 0)
    return s if a > 0 else -s


def _parts(x: SurdLike) -> tuple[int, int, int, int]:
    """x as integers (A, B, C, d) with value (A + B*sqrt(d))/C and C > 0."""
    if isinstance(x, QuadSurd):
        return x._A, x._B, x._C, x._d
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator, 0
    raise TypeError(f"cannot compare {type(x).__name__} as an exact scalar")


def surd_cmp(x: SurdLike, y: SurdLike) -> int:
    """Exact three-way comparison (-1, 0, 1) of rationals and quadratic surds.

    Both denominators are positive, so x - y has the sign of
    C2(A1 + B1*sqrt(d1)) - C1(A2 + B2*sqrt(d2)).  Across different radicands
    that is A + B*sqrt(d1) - E*sqrt(d2), resolved by comparing the
    rational-plus-one-radical part against the lone radical, squaring once
    more when both sides share a sign.
    """
    a1, b1, c1, d1 = _parts(x)
    a2, b2, c2, d2 = _parts(y)
    a = a1 * c2 - a2 * c1
    b1 *= c2
    b2 *= c1
    if d1 == d2:
        return _pair_sign(a, b1 - b2, d1)
    if b1 == 0:
        return _pair_sign(a, -b2, d2)
    if b2 == 0:
        return _pair_sign(a, b1, d1)
    # u = a + b1*sqrt(d1) versus v = b2*sqrt(d2), both radicals distinct
    su = _pair_sign(a, b1, d1)
    sv = 1 if b2 > 0 else -1
    if su == 0:
        return -sv
    if su != sv:
        return su
    # same nonzero sign: compare squares, u^2 - v^2 = (a^2 + b1^2 d1 - b2^2 d2) + 2 a b1*sqrt(d1)
    sq = _pair_sign(a * a + b1 * b1 * d1 - b2 * b2 * d2, 2 * a * b1, d1)
    return sq if su > 0 else -sq


def _coefficient(b: int, d: int, target: int) -> tuple[int, int]:
    """(n, m) with b*sqrt(d) = (n/m)*sqrt(target); d*target must be a square."""
    if d == target:
        return b, 1
    s = math.isqrt(d * target)
    if s * s != d * target:
        raise ValueError(f"mixed radicands {target} and {d} in arithmetic")
    # sqrt(d) = s/sqrt(target) = (s/target)*sqrt(target)
    return b * s, target


def _build(a: int, b: int, c: int, d: int) -> "QuadSurd":
    """The QuadSurd (a + b*sqrt(d))/c for integers with c != 0, normalized by __post_init__."""
    out = object.__new__(QuadSurd)
    out._A, out._B, out._C, out._d = a, b, c, d
    out.__post_init__()
    return out


def _sum(a1, b1, c1, d1, a2, b2, c2, d2) -> "QuadSurd":
    a = a1 * c2 + a2 * c1
    if b2 == 0:
        return _build(a, b1 * c2, c1 * c2, d1)
    if b1 == 0:
        return _build(a, b2 * c1, c1 * c2, d2)
    n, m = _coefficient(b2, d2, d1)
    return _build(a * m, b1 * c2 * m + n * c1, c1 * c2 * m, d1)


def _product(a1, b1, c1, d1, a2, b2, c2, d2) -> "QuadSurd":
    if b2 == 0:
        return _build(a1 * a2, b1 * a2, c1 * c2, d1)
    if b1 == 0:
        return _build(a1 * a2, a1 * b2, c1 * c2, d2)
    # (a1 + b1 r)(a2 + (n/m) r) with r^2 = d1, times m
    n, m = _coefficient(b2, d2, d1)
    return _build(m * a1 * a2 + b1 * n * d1, a1 * n + m * b1 * a2, m * c1 * c2, d1)


def _quotient(a1, b1, c1, d1, a2, b2, c2, d2) -> "QuadSurd":
    if b2 == 0:
        if a2 == 0:
            raise ZeroDivisionError("division by zero")
        return _build(a1 * c2, b1 * c2, c1 * a2, d1)
    norm = a2 * a2 - b2 * b2 * d2
    if norm == 0:
        raise ZeroDivisionError("division by zero surd")
    # the inverse of (a2 + b2*sqrt(d2))/c2 is c2 (a2 - b2*sqrt(d2))/norm
    return _product(a1, b1, c1, d1, c2 * a2, -c2 * b2, norm, d2)


class QuadSurd:
    """Exact value a + b*sqrt(d) with rational a, b and nonnegative integer d.

    The value is held as (A + B*sqrt(d))/C in Python ints, with C > 0 and
    gcd(A, B, C) = 1; a = A/C and b = B/C are read as Fractions.  Instances
    normalize in __post_init__, which every construction passes through:
    square factors of d are extracted (best effort, trial division by primes
    below 1000, once per distinct radicand; comparisons never depend on it),
    perfect squares fold into the rational part, and b = 0 forces d = 0.
    """

    __slots__ = ("_A", "_B", "_C", "_d")

    def __init__(self, a: RationalLike, b: RationalLike, d: int) -> None:
        if not (isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction))):
            raise TypeError(f"cannot read {a!r} and {b!r} as rationals")
        an, ad = a.numerator, a.denominator
        bn, bd = b.numerator, b.denominator
        self._A, self._B, self._C, self._d = an * bd, bn * ad, ad * bd, d
        self.__post_init__()

    def __post_init__(self) -> None:
        a, b, c, d = self._A, self._B, self._C, self._d
        if not isinstance(d, int):
            raise TypeError("radicand must be an integer")
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if b == 0 or d == 0:
            b = d = 0
        else:
            m, d = _extract_square(d)
            b *= m
            if d == 1:
                a += b
                b = d = 0
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(a, b, c)
        if g != 1:
            a, b, c = a // g, b // g, c // g
        self._A, self._B, self._C, self._d = a, b, c, d

    @property
    def a(self) -> Fraction:
        return Fraction(self._A, self._C)

    @property
    def b(self) -> Fraction:
        return Fraction(self._B, self._C)

    @property
    def d(self) -> int:
        return self._d

    # -- value queries ------------------------------------------------------

    def is_rational(self) -> bool:
        return self._B == 0

    def as_fraction(self) -> Fraction:
        if self._B != 0:
            raise ValueError(f"{self!r} is irrational")
        return Fraction(self._A, self._C)

    def sign(self) -> int:
        return _pair_sign(self._A, self._B, self._d)

    def __float__(self) -> float:
        a, b, c, d = self._A, self._B, self._C, self._d
        try:
            root = math.sqrt(d)
        except OverflowError:
            # d is too large for a float; b*sqrt(d) = sign(b)*sqrt(b^2 d), and b^2 d is not
            root_b2d = math.sqrt(b * b * d / (c * c))
            return a / c + math.copysign(root_b2d, b)
        return a / c + b / c * root

    def __floor__(self) -> int:
        a, b, c = self._A, self._B, self._C
        if b == 0:
            return a // c
        # s < |b|*sqrt(d) < s + 1, since b^2 d is not a square, and no integer lies
        # strictly between the numerator and the integer below it
        s = math.isqrt(b * b * self._d)
        return (a + s) // c if b > 0 else (a - s - 1) // c

    # -- arithmetic (within a single radicand class) ------------------------

    def __neg__(self) -> "QuadSurd":
        return _build(-self._A, -self._B, self._C, self._d)

    def __add__(self, other: SurdLike) -> "QuadSurd":
        return _sum(self._A, self._B, self._C, self._d, *_parts(other))

    def __radd__(self, other: SurdLike) -> "QuadSurd":
        return self.__add__(other)

    def __sub__(self, other: SurdLike) -> "QuadSurd":
        a, b, c, d = _parts(other)
        return _sum(self._A, self._B, self._C, self._d, -a, -b, c, d)

    def __rsub__(self, other: SurdLike) -> "QuadSurd":
        return _sum(-self._A, -self._B, self._C, self._d, *_parts(other))

    def __mul__(self, other: SurdLike) -> "QuadSurd":
        return _product(self._A, self._B, self._C, self._d, *_parts(other))

    def __rmul__(self, other: SurdLike) -> "QuadSurd":
        return self.__mul__(other)

    def __truediv__(self, other: SurdLike) -> "QuadSurd":
        return _quotient(self._A, self._B, self._C, self._d, *_parts(other))

    def __rtruediv__(self, other: SurdLike) -> "QuadSurd":
        return _quotient(*_parts(other), self._A, self._B, self._C, self._d)

    def __pow__(self, exponent: int) -> "QuadSurd":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = QuadSurd(1, 0, 0)
        for _ in range(exponent):
            out = out * self
        return out

    # -- total order --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, QuadSurd)):
            return surd_cmp(self, other) == 0
        return NotImplemented

    def __hash__(self) -> int:
        if self._B == 0:
            return hash(Fraction(self._A, self._C))
        # a, sign b and b^2 d fix the value whatever radicand extraction left
        b2d = Fraction(self._B * self._B * self._d, self._C * self._C)
        return hash((self.a, self._B > 0, b2d))

    def __lt__(self, other: SurdLike) -> bool:
        return surd_cmp(self, other) < 0

    def __le__(self, other: SurdLike) -> bool:
        return surd_cmp(self, other) <= 0

    def __gt__(self, other: SurdLike) -> bool:
        return surd_cmp(self, other) > 0

    def __ge__(self, other: SurdLike) -> bool:
        return surd_cmp(self, other) >= 0

    def __repr__(self) -> str:
        if self._B == 0:
            return f"QuadSurd({self.a})"
        return f"QuadSurd({self.a} + {self.b}*sqrt({self._d}))"

    def to_json(self) -> dict:
        return {"a": fraction_str(self.a), "b": fraction_str(self.b), "d": self._d}


def surd_value(a: RationalLike, b: RationalLike, d: int) -> QuadSurd:
    """Build the normalized exact value a + b*sqrt(d)."""
    return QuadSurd(Fraction(a), Fraction(b), d)


def sqrt_rational(x: RationalLike) -> QuadSurd:
    """Exact square root of a nonnegative rational, as a QuadSurd."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative rational")
    # sqrt(p/q) = sqrt(p*q)/q
    return QuadSurd(0, Fraction(1, x.denominator), x.numerator * x.denominator)


def fraction_str(x: RationalLike) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction; a bad text raises ValueError."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError("invalid rational %r: zero denominator" % text) from None
