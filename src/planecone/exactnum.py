"""Exact scalars: arbitrary-precision rationals and quadratic surds a + b*sqrt(d).

Rationals are fractions.Fraction throughout the package.  QuadSurd adds a single
square root of a nonnegative integer, which is all the irrationality the slope
arithmetic ever needs.  Comparisons between surds over different radicands are
decided by sign-tracked squaring over exact integers; no floating point is used
anywhere in a correctness path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
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


def _pair_sign(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for nonnegative integer d."""
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


def _parts(x: SurdLike) -> tuple[Fraction, Fraction, int]:
    if isinstance(x, QuadSurd):
        return x.a, x.b, x.d
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0), 0
    raise TypeError(f"cannot compare {type(x).__name__} as an exact scalar")


def surd_cmp(x: SurdLike, y: SurdLike) -> int:
    """Exact three-way comparison (-1, 0, 1) of rationals and quadratic surds.

    Works across different radicands: the difference A + B*sqrt(d1) - C*sqrt(d2)
    is resolved by comparing the rational-plus-one-radical part against the lone
    radical, squaring once more when both sides share a sign.
    """
    a1, b1, d1 = _parts(x)
    a2, b2, d2 = _parts(y)
    diff_a = a1 - a2
    if d1 == d2:
        return _pair_sign(diff_a, b1 - b2, d1)
    if b1 == 0:
        return _pair_sign(diff_a, -b2, d2)
    if b2 == 0:
        return _pair_sign(diff_a, b1, d1)
    # u = diff_a + b1*sqrt(d1) versus v = b2*sqrt(d2), both radicals distinct
    su = _pair_sign(diff_a, b1, d1)
    sv = 1 if b2 > 0 else -1
    if su == 0:
        return -sv
    if su != sv:
        return su
    # same nonzero sign: compare squares, u^2 - v^2 = (A^2 + B^2 d1 - C^2 d2) + 2AB*sqrt(d1)
    sq = _pair_sign(diff_a * diff_a + b1 * b1 * d1 - b2 * b2 * d2, 2 * diff_a * b1, d1)
    return sq if su > 0 else -sq


@dataclass(frozen=True, eq=False)
class QuadSurd:
    """Exact value a + b*sqrt(d) with rational a, b and nonnegative integer d.

    Instances normalize on construction: square factors of d are extracted
    (best effort, trial division by primes below 1000; comparisons never depend
    on it), perfect squares fold into the rational part, and b = 0 forces d = 0.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        a = Fraction(self.a)
        b = Fraction(self.b)
        d = self.d
        if not isinstance(d, int):
            raise TypeError("radicand must be an integer")
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        if b == 0 or d == 0:
            b, d = Fraction(0), 0
        else:
            m, d = _extract_square(d)
            b *= m
            if d == 1:
                a += b
                b, d = Fraction(0), 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    # -- value queries ------------------------------------------------------

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} is irrational")
        return self.a

    def sign(self) -> int:
        return _pair_sign(self.a, self.b, self.d)

    def __float__(self) -> float:
        try:
            root = math.sqrt(self.d)
        except OverflowError:
            # d is too large for a float; b*sqrt(d) = sign(b)*sqrt(b^2 d), and b^2 d is not
            root_b2d = math.sqrt(float(self.b * self.b * self.d))
            return float(self.a) + math.copysign(root_b2d, self.b)
        return float(self.a) + float(self.b) * root

    def __floor__(self) -> int:
        if self.b == 0:
            return math.floor(self.a)
        t = self.b * self.b * self.d
        s = math.isqrt(t.numerator * t.denominator)
        if self.b > 0:
            root = Fraction(s, t.denominator)
        else:
            root = -Fraction(s + 1, t.denominator)
        k = math.floor(self.a + root)
        while surd_cmp(k + 1, self) <= 0:
            k += 1
        while surd_cmp(k, self) > 0:
            k -= 1
        return k

    # -- arithmetic (within a single radicand class) ------------------------

    def _coefficient_of(self, b: Fraction, d: int) -> Fraction:
        """b*sqrt(d) as a multiple of sqrt(self.d); d*self.d must be a square."""
        if d == self.d:
            return b
        s = math.isqrt(d * self.d)
        if s * s != d * self.d:
            raise ValueError(f"mixed radicands {self.d} and {d} in arithmetic")
        return b * Fraction(s, self.d)

    def __neg__(self) -> "QuadSurd":
        return QuadSurd(-self.a, -self.b, self.d)

    def __add__(self, other: SurdLike) -> "QuadSurd":
        a, b, d = _parts(other)
        if b == 0:
            return QuadSurd(self.a + a, self.b, self.d)
        if self.b == 0:
            return QuadSurd(self.a + a, b, d)
        return QuadSurd(self.a + a, self.b + self._coefficient_of(b, d), self.d)

    def __radd__(self, other: SurdLike) -> "QuadSurd":
        return self.__add__(other)

    def __sub__(self, other: SurdLike) -> "QuadSurd":
        return self.__add__(-other if isinstance(other, QuadSurd) else -Fraction(other))

    def __rsub__(self, other: SurdLike) -> "QuadSurd":
        return (-self).__add__(other)

    def __mul__(self, other: SurdLike) -> "QuadSurd":
        a, b, d = _parts(other)
        if b == 0:
            return QuadSurd(self.a * a, self.b * a, self.d)
        if self.b == 0:
            return QuadSurd(self.a * a, self.a * b, d)
        b = self._coefficient_of(b, d)
        return QuadSurd(
            self.a * a + self.b * b * self.d, self.a * b + self.b * a, self.d
        )

    def __rmul__(self, other: SurdLike) -> "QuadSurd":
        return self.__mul__(other)

    def __truediv__(self, other: SurdLike) -> "QuadSurd":
        a, b, d = _parts(other)
        if b == 0:
            if a == 0:
                raise ZeroDivisionError("division by zero")
            return QuadSurd(self.a / a, self.b / a, self.d)
        norm = a * a - b * b * d
        if norm == 0:
            raise ZeroDivisionError("division by zero surd")
        return self.__mul__(QuadSurd(a / norm, -b / norm, d))

    def __rtruediv__(self, other: SurdLike) -> "QuadSurd":
        a, b, _ = _parts(other)
        return QuadSurd(a, b, self.d).__truediv__(self)

    def __pow__(self, exponent: int) -> "QuadSurd":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = QuadSurd(Fraction(1), Fraction(0), 0)
        for _ in range(exponent):
            out = out * self
        return out

    # -- total order --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction, QuadSurd)):
            return surd_cmp(self, other) == 0
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        # a, sign b and b^2 d fix the value whatever radicand extraction left
        return hash((self.a, self.b > 0, self.b * self.b * self.d))

    def __lt__(self, other: SurdLike) -> bool:
        return surd_cmp(self, other) < 0

    def __le__(self, other: SurdLike) -> bool:
        return surd_cmp(self, other) <= 0

    def __gt__(self, other: SurdLike) -> bool:
        return surd_cmp(self, other) > 0

    def __ge__(self, other: SurdLike) -> bool:
        return surd_cmp(self, other) >= 0

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QuadSurd({self.a})"
        return f"QuadSurd({self.a} + {self.b}*sqrt({self.d}))"

    def to_json(self) -> dict:
        return {"a": fraction_str(self.a), "b": fraction_str(self.b), "d": self.d}


def surd_value(a: RationalLike, b: RationalLike, d: int) -> QuadSurd:
    """Build the normalized exact value a + b*sqrt(d)."""
    return QuadSurd(Fraction(a), Fraction(b), d)


def sqrt_rational(x: RationalLike) -> QuadSurd:
    """Exact square root of a nonnegative rational, as a QuadSurd."""
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative rational")
    # sqrt(p/q) = sqrt(p*q)/q
    return QuadSurd(Fraction(0), Fraction(1, x.denominator), x.numerator * x.denominator)


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
