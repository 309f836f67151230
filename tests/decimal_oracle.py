"""A Decimal oracle for order at quadratic surds, which the package never compares.

An interval end alpha +- x_alpha is irrational, so the tests decide where a
number lies against it by a 220-digit evaluation, and accept the answer only
when the gap is far above the evaluation's rounding.
"""

from decimal import Decimal, localcontext
from fractions import Fraction

from planecone.exactnum import QuadSurd

DIGITS = 220
MARGIN = Decimal("1e-180")


def decimal_of(x, prec=DIGITS) -> Decimal:
    """A QuadSurd, an int or a Fraction as a Decimal of prec significant digits."""
    with localcontext() as ctx:
        ctx.prec = prec
        if isinstance(x, QuadSurd):
            a = Decimal(x.a.numerator) / Decimal(x.a.denominator)
            b = Decimal(x.b.numerator) / Decimal(x.b.denominator)
            return a + b * Decimal(x.d).sqrt()
        f = Fraction(x)
        return Decimal(f.numerator) / Decimal(f.denominator)


def oracle_cmp(x, y) -> int:
    """The sign of x - y; fails when 220 digits leave |x - y| within MARGIN."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        diff = decimal_of(x) - decimal_of(y)
    assert abs(diff) > MARGIN, ("undecided at %d digits" % DIGITS, x, y)
    return 1 if diff > 0 else -1


def times(x, y, d):
    """The product of a + b sqrt(d) given as coefficient pairs (a, b)."""
    (a1, b1), (a2, b2) = x, y
    return a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1
