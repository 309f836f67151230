"""Continued fractions for rationals.

A rational is read as an int or a Fraction and expanded by the integer Euclid
on its numerator and denominator.  Expansions are kept in the even-length
canonical form (an odd-length raw expansion is renormalized by merging or
splitting the last term), with the full convergent list carried along so
structural predicates stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import RationalLike, _as_rational
from .exceptional import _slope_value


@dataclass(frozen=True)
class ContinuedFraction:
    """Even-length expansion [a0; a1, ..., ak] with convergents (p_i, q_i)."""

    integer_part: int
    terms: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]

    def value(self) -> Fraction:
        p, q = self.convergents[-1]
        return Fraction(p, q)

    def __str__(self) -> str:
        if not self.terms:
            return "[%d]" % self.integer_part
        return "[%d;%s]" % (self.integer_part, ",".join(str(t) for t in self.terms))

    def to_json(self) -> dict:
        return {
            "integer_part": self.integer_part,
            "terms": list(self.terms),
            "convergents": [[p, q] for p, q in self.convergents],
        }


def _expand(num: int, den: int) -> ContinuedFraction:
    """Even-length expansion of num/den, den > 0, by the integer Euclid on (num, den)."""
    a0, rem = divmod(num, den)
    terms: list[int] = []
    u, v = den, rem
    while v:
        a, rem = divmod(u, v)
        terms.append(a)
        u, v = v, rem
    if len(terms) % 2:
        # Euclid never ends on a 1: its last quotient is >= 2
        terms[-1] -= 1
        terms.append(1)
    ps = [1, a0]
    qs = [0, 1]
    for a in terms:
        ps.append(a * ps[-1] + ps[-2])
        qs.append(a * qs[-1] + qs[-2])
    # the last convergent is in lowest terms with a positive denominator, as num/den is
    if (ps[-1], qs[-1]) != (num, den):
        raise ArithmeticError(
            "expansion of %s did not reconstruct its input" % Fraction(num, den)
        )
    return ContinuedFraction(a0, tuple(terms), tuple(zip(ps[1:], qs[1:])))


def cf_expand_even(x: RationalLike) -> ContinuedFraction:
    """Expand an int or a Fraction into the even-length canonical continued fraction."""
    x = _as_rational(x)
    return _expand(x.numerator, x.denominator)


def is_palindrome(cf: ContinuedFraction) -> bool:
    """True when the term word a1..ak reads the same in both directions."""
    return cf.terms == cf.terms[::-1]


def _block_lengths(word, symbol) -> list[int]:
    out = []
    run = 0
    for t in word:
        if t == symbol:
            run += 1
        elif run:
            out.append(run)
            run = 0
    if run:
        out.append(run)
    return out


def check_exceptional_cf(alpha) -> dict:
    """Structure report for the expansion of a slope's fractional part.

    All four flags are true for every exceptional slope; the checks run on
    the fractional part so any representative of the slope may be passed.
    """
    value = _slope_value(alpha)
    num, den = value.numerator, value.denominator
    cf = _expand(num % den, den)
    terms = cf.terms
    return {
        "palindrome": is_palindrome(cf),
        "terms_in_12": all(t in (1, 2) for t in terms),
        "ones_blocks_even": all(n % 2 == 0 for n in _block_lengths(terms, 1)),
        "interior_twos_blocks_even": all(
            n % 2 == 0 for n in _block_lengths(terms[1:-1], 2)
        ),
    }
