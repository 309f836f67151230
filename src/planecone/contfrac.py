"""Continued fractions for rationals.

A rational is read as an int or a Fraction and expanded by the integer Euclid
on its numerator and denominator, _even_terms, the one expansion.  Expansions
are kept in the even-length canonical form (an odd-length raw expansion is
renormalized by merging or splitting the last term), and each is checked to
rebuild its input from two rolling convergents.  check_exceptional_cf reads
the terms alone; cf_expand_even builds the public ContinuedFraction, which
carries the full convergent list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactnum import RationalLike, _as_rational
from .exceptional import _slope_value

__all__ = [
    "ContinuedFraction",
    "cf_expand_even",
    "check_exceptional_cf",
]


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


def _even_terms(num: int, den: int) -> tuple[int, tuple[int, ...]]:
    """a0 and the even-length terms of num/den, den > 0, by the integer Euclid on (num, den).

    The last convergent, rolled along in two (p, q) pairs, must be num/den.
    """
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
    p0, q0, p, q = 1, 0, a0, 1
    for a in terms:
        p, p0 = a * p + p0, p
        q, q0 = a * q + q0, q
    # the last convergent is in lowest terms with a positive denominator, as num/den is
    if p != num or q != den:
        raise ArithmeticError(
            "expansion of %s did not reconstruct its input" % Fraction(num, den)
        )
    return a0, tuple(terms)


def cf_expand_even(x: RationalLike) -> ContinuedFraction:
    """Expand an int or a Fraction into the even-length canonical continued fraction."""
    x = _as_rational(x)
    a0, terms = _even_terms(x.numerator, x.denominator)
    p0, q0, p, q = 1, 0, a0, 1
    convergents = [(p, q)]
    for a in terms:
        p, p0 = a * p + p0, p
        q, q0 = a * q + q0, q
        convergents.append((p, q))
    return ContinuedFraction(a0, terms, tuple(convergents))


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
    _, terms = _even_terms(num % den, den)
    return {
        "palindrome": terms == terms[::-1],
        "terms_in_12": all(t in (1, 2) for t in terms),
        "ones_blocks_even": all(n % 2 == 0 for n in _block_lengths(terms, 1)),
        "interior_twos_blocks_even": all(
            n % 2 == 0 for n in _block_lengths(terms[1:-1], 2)
        ),
    }
