"""Resolutions of ideal sheaves of n general points in the plane.

gaeta_resolution computes the three-bundle resolution attached to the
minimal-slope computation, together with the auxiliary bundle W sitting
between the ideal sheaf and the exceptional terms.  classical_gaeta gives
the line-bundle resolution of general points for comparison, and
kronecker_data extracts the Kronecker-quiver numerics that control the
moduli space of W.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .chern import ChernCharacter, exceptional_character, line_bundle
from .contfrac import is_convergent_of_inverse_golden
from .exactnum import QuadSurd, fraction_str
from .exceptional import ExceptionalSlope, parent_pair
from .stability import CASE_ABOVE_DOT, CASE_AT_DOT, CASE_BELOW_DOT, _delta, min_slope

CASE_TWO_S_LEQ = "TwoSLeq"
CASE_TWO_S_GEQ = "TwoSGeq"


@dataclass(frozen=True)
class SeqTerm:
    """One slot of an exact sequence: a bundle power or a named sheaf."""

    label: str
    char: ChernCharacter
    slope: Fraction | None = None
    mult: int | None = None

    def to_json(self) -> dict:
        out = {"label": self.label, "char": self.char.to_json()}
        if self.slope is not None:
            out["slope"] = fraction_str(self.slope)
            out["mult"] = self.mult
        return out


def _bundle_term(slope: ExceptionalSlope, mult: int) -> SeqTerm:
    label = "E(%s)^%d" % (fraction_str(slope.value), mult)
    return SeqTerm(label, mult * exceptional_character(slope), slope.value, mult)


def _normalize_terms(negatives, positives):
    """Drop zero multiplicities and sort each side by slope."""
    return tuple(tuple(sorted(t for t in side if t[1])) for side in (negatives, positives))


def _total(terms, character) -> ChernCharacter:
    """Sum of m * character(s) over the (s, m) pairs."""
    total = ChernCharacter(0, 0, 0)
    for s, m in terms:
        total = total + m * character(s)
    return total


@dataclass(frozen=True)
class ResolutionData:
    n: int
    mu: Fraction
    alpha: ExceptionalSlope
    beta: ExceptionalSlope
    dot_slope: ExceptionalSlope
    case: str
    sporadic: bool
    m1: int
    m2: int
    m3: int
    w_char: ChernCharacter
    w_sequence: tuple[SeqTerm, ...]
    iz_sequence: tuple[SeqTerm, ...]
    # (slope, mult) pairs presenting I_Z, mult < 0 on the left of the complex
    terms: tuple[tuple[ExceptionalSlope, int], ...]

    @property
    def k(self) -> int:
        """Exponent 3 r_D m1 - m2 shared by both exact sequences."""
        return 3 * self.dot_slope.rank * self.m1 - self.m2

    @property
    def negative_terms(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple((s.value, -m) for s, m in self.terms if m < 0)

    @property
    def positive_terms(self) -> tuple[tuple[Fraction, int], ...]:
        return tuple((s.value, m) for s, m in self.terms if m > 0)

    def complex_terms(self):
        """Bundle terms presenting I_Z, normalized to positive multiplicities."""
        return _normalize_terms(self.negative_terms, self.positive_terms)

    def ideal_character(self) -> ChernCharacter:
        return _total(self.terms, exceptional_character)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "mu": fraction_str(self.mu),
            "alpha": fraction_str(self.alpha.value),
            "beta": fraction_str(self.beta.value),
            "dot_slope": fraction_str(self.dot_slope.value),
            "case": self.case,
            "sporadic": self.sporadic,
            "m1": self.m1,
            "m2": self.m2,
            "m3": self.m3,
            "w_char": self.w_char.to_json(),
            "w_sequence": [t.to_json() for t in self.w_sequence],
            "iz_sequence": [t.to_json() for t in self.iz_sequence],
        }


def _as_int(x: Fraction, what: str, n: int) -> int:
    if Fraction(x).denominator != 1:
        raise ArithmeticError("%s is not an integer for n=%d" % (what, n))
    return int(x)


def gaeta_resolution(n: int) -> ResolutionData:
    """Resolution of the ideal sheaf of n >= 2 general points.

    The slope D = alpha.beta of the minimal-slope computation sorts n into
    three cases by the position of mu relative to D.  In the AtDot case the
    ideal sheaf is resolved directly by the parent bundles and W degenerates
    to I_Z itself, so w_sequence is empty there.
    """
    if n < 2:
        raise ValueError("the resolution is computed for n >= 2")
    ms = min_slope(n)
    dot = ms.associated
    a, b = parent_pair(dot)
    dval = dot.value
    rd = dot.rank
    mu = ms.mu
    case = ms.position
    if case == CASE_BELOW_DOT:
        m1 = _as_int(a.rank * (mu - a.value) * dval, "m1", n)
        m2 = _as_int(b.rank * (mu - b.value + 3) * dval, "m2", n)
        m3 = dot.euler - n * rd
        assert m3 > 0
    else:
        # mu = lambda above D; at D the multiplicities are still read at lambda
        m1 = _as_int(b.rank * (b.value - ms.lam) * (dval + 3), "m1", n)
        m2 = _as_int(a.rank * (3 + a.value - ms.lam) * (dval + 3), "m2", n)
        m3 = n * rd - dot.euler
        assert m3 > 0 if case == CASE_ABOVE_DOT else m3 == 0
    k = 3 * rd * m1 - m2
    assert m1 > 0 and m2 > 0 and k > 0

    sub, quo = a.dual_twist(-3), b.dual_twist(0)
    m_sub, m_quo = (m1, k) if case == CASE_BELOW_DOT else (k, m1)
    first, second = _bundle_term(sub, m_sub), _bundle_term(quo, m_quo)
    terms = ((sub, -m_sub), (quo, m_quo))
    iz = ChernCharacter(1, 0, -n)
    iz_term = SeqTerm("I_Z", iz)
    if case == CASE_BELOW_DOT:
        w_term = SeqTerm("W", first.char - second.char)
        w_seq = (w_term, first, second)
        iz_seq = (w_term, _bundle_term(dot.dual_twist(0), m3), iz_term)
        terms += ((dot.dual_twist(0), m3),)
    elif case == CASE_ABOVE_DOT:
        w_term = SeqTerm("W", second.char - first.char)
        w_seq = (first, second, w_term)
        iz_seq = (_bundle_term(dot.dual_twist(-3), m3), w_term, iz_term)
        terms += ((dot.dual_twist(-3), -m3),)
    else:
        w_term = SeqTerm("W", iz)
        w_seq = ()
        iz_seq = (first, second, iz_term)

    sporadic = case == CASE_BELOW_DOT and m3 * rd <= 2
    out = ResolutionData(
        n, mu, a, b, dot, case, sporadic, m1, m2, m3, w_term.char, w_seq, iz_seq, terms,
    )
    if out.ideal_character() != iz:
        raise ArithmeticError("resolution terms for n=%d do not assemble to I_Z" % n)
    return out


@dataclass(frozen=True)
class ClassicalGaeta:
    """Line-bundle resolution of n general points, split by the sign of 2s - r."""

    n: int
    r: int
    s: int
    case: str
    sub_terms: tuple[tuple[Fraction, int], ...]
    quot_terms: tuple[tuple[Fraction, int], ...]

    def complex_terms(self):
        return _normalize_terms(self.sub_terms, self.quot_terms)

    def character(self) -> ChernCharacter:
        return _total(self.quot_terms, line_bundle) - _total(self.sub_terms, line_bundle)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "s": self.s,
            "case": self.case,
            "sub_terms": [[fraction_str(d), m] for d, m in self.sub_terms],
            "quot_terms": [[fraction_str(d), m] for d, m in self.quot_terms],
        }


def classical_gaeta(n: int) -> ClassicalGaeta:
    """Resolution of n general points by line bundles in degrees -r..-r-2."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    r = (isqrt(8 * n + 1) - 1) // 2
    s = n - r * (r + 1) // 2
    assert 0 <= s <= r
    if 2 * s <= r:
        case = CASE_TWO_S_LEQ
        sub = ((Fraction(-r - 1), r - 2 * s), (Fraction(-r - 2), s))
        quot = ((Fraction(-r), r - s + 1),)
    else:
        case = CASE_TWO_S_GEQ
        sub = ((Fraction(-r - 2), s),)
        quot = ((Fraction(-r), r - s + 1), (Fraction(-r - 1), 2 * s - r))
    out = ClassicalGaeta(n, r, s, case, sub, quot)
    assert out.character().astuple() == (1, 0, -n)
    return out


_INV_GOLDEN = QuadSurd(Fraction(-1, 2), Fraction(1, 2), 5)


def classical_w_stable(n: int) -> bool:
    """Stability of the classical syzygy bundle, decided by s/r against 1/phi."""
    cg = classical_gaeta(n)
    ratio = Fraction(cg.s, cg.r)
    return ratio > _INV_GOLDEN or is_convergent_of_inverse_golden(ratio)


class KroneckerNotApplicableError(ValueError):
    """No stable Kronecker module is attached to this n."""


@dataclass(frozen=True)
class KroneckerData:
    n: int
    N: int
    a: int
    b: int
    psi_lower: QuadSurd
    psi_upper: QuadSurd
    slope_in_window: bool
    rank_v: int
    kr_dim: Fraction
    hilb_dim_excess: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "a": self.a,
            "b": self.b,
            "slope_in_window": self.slope_in_window,
            "rank_v": self.rank_v,
            "kr_dim": fraction_str(self.kr_dim),
            "hilb_dim_excess": self.hilb_dim_excess,
        }


def kronecker_euler(N: int, e, f) -> int:
    """chi between modules of dimension vectors e=(b,a), f=(b',a')."""
    b, a = e
    bp, ap = f
    return b * bp + a * ap - N * b * ap


def kronecker_data(n: int) -> KroneckerData:
    """Kronecker-module invariants of the W bundle for n general points.

    Raises KroneckerNotApplicableError when the minimal slope is exceptional
    (the quiver moduli map is birational rather than fibered there) or when
    the case is sporadic and W only exists as a two-term complex.
    """
    res = gaeta_resolution(n)
    if res.mu == res.dot_slope.value:
        raise KroneckerNotApplicableError(
            "n=%d has exceptional minimal slope, the moduli map is birational" % n
        )
    if res.sporadic:
        raise KroneckerNotApplicableError(
            "n=%d is sporadic, W exists only as a two-term complex" % n
        )
    N = 3 * res.dot_slope.rank
    a = res.m1
    b = res.k
    rt = N * N - 4
    psi_upper = QuadSurd(Fraction(N, 2), Fraction(1, 2), rt)
    psi_lower = QuadSurd(Fraction(N, 2), Fraction(-1, 2), rt)
    ratio = Fraction(b, a)
    in_window = psi_lower < ratio < psi_upper
    if res.case == CASE_BELOW_DOT:
        rank_v = res.dot_slope.value * res.dot_slope.rank
    else:
        rank_v = (res.dot_slope.value + 3) * res.dot_slope.rank
    rank_v = int(rank_v)
    kr_dim = rank_v * rank_v * (2 * _delta(res.mu, res.dot_slope) - 1) + 1
    return KroneckerData(
        n, N, a, b, psi_lower, psi_upper, in_window,
        rank_v, kr_dim, kr_dim < 2 * n,
    )
