"""Exact scalars: arbitrary-precision rationals and quadratic surds (A + B*sqrt(d))/C.

Every rational argument in the package is read by _as_rational, an int or a
Fraction as a Fraction, or by _as_ratio, the same as an integer pair; a bool,
a float, a string, a Decimal or a QuadSurd raises TypeError.  An int argument,
such as a depth or a rank, is read by _as_int, which rejects a bool too.
QuadSurd is a printed value: the package builds one only for the half-width
x_alpha of an exceptional interval and for the two ends alpha +- x_alpha,
which are all its irrationality, and no function of the package takes one,
compares one or computes with one.  Every decision at an interval end is an
integer formula on the slope's numerator and rank.  A QuadSurd holds
(A + B*sqrt(d))/C in Python ints, with C > 0 and gcd(A, B, C) = 1, and offers
its float, repr and JSON, and an exact == and hash for the tests and callers
that keep surds in sets.  A QuadSurd pulls the small square factors out of
its radicand when it is built, with no memo: no walk or decision builds one.
No floating point is used anywhere in a correctness path.

Record is the base of the package's eleven plain records, from CheckResult
to MinSlopeResult: fields declared once, equality, hash, repr and no
assignment, with no import beyond this module's.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import attrgetter

__all__ = [
    "QuadSurd",
    "fraction_str",
    "parse_fraction",
]

RationalLike = int | Fraction


def _as_rational(x: RationalLike) -> Fraction:
    """An int or a Fraction as a Fraction; a bool or any other type raises TypeError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"cannot read {x!r} as a rational")


def _as_ratio(x: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction, read as _as_rational reads it."""
    if type(x) is int:
        return x, 1
    x = _as_rational(x)
    return x.numerator, x.denominator


def _as_int(x: int, name: str) -> int:
    """An int argument as it is; a bool, a float or a string raises TypeError naming it."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError("%s must be an int, not %s" % (name, type(x).__name__))
    return x


_set = object.__setattr__


class Record:
    """Named fields, frozen: the base of the package's plain records.

    A subclass declares its fields as annotations, in order; a field given a
    value in the class body is optional, with that value as its default, and
    follows every field without one.  A record is built positionally, and a
    subclass's __post_init__, if it has one, runs last on every construction.
    Two records are equal when they are of one class with equal fields, a
    record hashes as the tuple of its fields, prints as Cls(field=value, ...)
    and refuses assignment; object.__setattr__ and cached_property write its
    __dict__ and still work.  The methods live here and not on each subclass,
    so a subclass's own attributes are its own code.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        required = sum(name not in vars(cls) for name in cls._fields)
        # one class attribute for __init__ to read: each read through an
        # instance is a slow, unspecialized lookup
        cls._shape = cls._fields, required, hasattr(cls, "__post_init__")
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *values) -> None:
        fields, required, post = self._shape
        # object.__setattr__ and not __dict__.update, which would make the
        # instance's attribute reads slower from then on; an index, not zip,
        # is the faster loop on CPython 3.11, and a try costs nothing there
        i = 0
        try:
            for value in values:
                _set(self, fields[i], value)
                i += 1
        except IndexError:
            raise TypeError("%s takes at most %d fields" % (type(self).__name__, len(fields))) from None
        if i < required:
            raise TypeError("%s takes at least %d fields, not %d" % (type(self).__name__, required, i))
        if post:
            self.__post_init__()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError("cannot set or delete %s.%s" % (type(self).__name__, name))

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        values = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__qualname__, values)


def _extract_square(d: int) -> tuple[int, int]:
    """Return (m, d') with d = m^2 * d', pulling out small square factors.

    It trial-divides by every p in 2..1000 in turn: a composite p's square
    cannot divide what is left once its prime factors' squares are out, so
    only primes pull anything.  It runs once per printed QuadSurd, so nothing
    keeps its answers.
    """
    m = 1
    for p in range(2, 1001):
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


class QuadSurd:
    """Exact value a + b*sqrt(d) with rational a, b and nonnegative integer d.

    The value is held as (A + B*sqrt(d))/C in Python ints, with C > 0 and
    gcd(A, B, C) = 1; a = A/C and b = B/C are read as Fractions.  Instances
    normalize in __post_init__, which every construction passes through:
    square factors of d are extracted (best effort, trial division by 2..1000
    on every build; equality never depends on it),
    perfect squares fold into the rational part, and b = 0 forces d = 0.
    A bool radicand raises TypeError.  It has no order and no arithmetic.
    """

    __slots__ = ("_A", "_B", "_C", "_d")

    def __init__(self, a: RationalLike, b: RationalLike, d: int) -> None:
        a, b = _as_rational(a), _as_rational(b)
        an, ad = a.numerator, a.denominator
        bn, bd = b.numerator, b.denominator
        self._A, self._B, self._C, self._d = an * bd, bn * ad, ad * bd, d
        self.__post_init__()

    def __post_init__(self) -> None:
        a, b, c, d = self._A, self._B, self._C, _as_int(self._d, "radicand")
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

    def __float__(self) -> float:
        a, b, c, d = self._A, self._B, self._C, self._d
        try:
            root = math.sqrt(d)
        except OverflowError:
            # d is too large for a float; b*sqrt(d) = sign(b)*sqrt(b^2 d), and b^2 d is not
            root_b2d = math.sqrt(b * b * d / (c * c))
            return a / c + math.copysign(root_b2d, b)
        return a / c + b / c * root

    # -- equality -----------------------------------------------------------

    def _key(self) -> tuple:
        """(a, sign of b, b^2 d): it fixes the value whatever radicand extraction left."""
        return self.a, self._B > 0, Fraction(self._B * self._B * self._d, self._C * self._C)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadSurd):
            return self._key() == other._key()
        if isinstance(other, (int, Fraction)):
            return self._B == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        # a rational surd hashes like the Fraction it equals
        return hash(self.a) if self._B == 0 else hash(self._key())

    def __repr__(self) -> str:
        if self._B == 0:
            return f"QuadSurd({self.a})"
        return f"QuadSurd({self.a} + {self.b}*sqrt({self._d}))"

    def to_json(self) -> dict:
        return {"a": fraction_str(self.a), "b": fraction_str(self.b), "d": self._d}


def fraction_str(x: RationalLike) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    num, den = _as_ratio(x)
    if den == 1:
        return str(num)
    return f"{num}/{den}"


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact Fraction; a bad text raises ValueError."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError("invalid rational %r: zero denominator" % text) from None
