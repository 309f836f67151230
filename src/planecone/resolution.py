"""Resolutions of ideal sheaves of n general points in the plane.

gaeta_resolution computes the three-bundle resolution attached to the
minimal-slope computation, together with the auxiliary bundle W sitting
between the ideal sheaf and the exceptional terms.  classical_gaeta gives
the line-bundle resolution of general points for comparison, and
kronecker_data extracts the Kronecker-quiver numerics that control the
moduli space of W.

gaeta_resolution, kronecker_data and collapsing_wall each take an int n and
read one record of the resolution, the ResolutionData that one memoized
builder, _core_of, makes from min_slope(n): it reads lambda and s off it,
computes the multiplicities m1, m2 and k of the generalized Gaeta
resolution, takes each bundle term's character, runs every check of the
resolution, the assembly to I_Z included, in integers, and builds the two
exact sequences.  gaeta_resolution returns that record; kronecker_data reads
m1, k and s off it; collapsing_wall reads its wall, which the record builds
from its last term, the bundle that destabilizes I_Z, on first use and keeps
from then on.  The record is memoized by n, so the three answers on one n
cost one walk and one build together, and a repeat returns the same record
and the same wall.  Every sum of the terms' characters, the assembly check's
and ideal_character's, is one chern._sum_ints.
The memo keeps the last _CORE_MEMO_SIZE = 512 n used, which holds the
n = 2..500 that `verify all` sweeps at its default depth; the int is read
before the memo is (_core).

The case is the sign of one integer, s = chi(E_D) - n r_D = chi(E_D (x) I_Z),
which min_slope computes and hands over as MinSlopeResult.s.  The builder
names the position of mu against D from it, the record's case (CASE_BELOW_DOT,
CASE_AT_DOT or CASE_ABOVE_DOT, set here only), and carries it as its field s;
nothing here compares a position string.  The sign fixes the terms
(_term_slopes): E_{-alpha-3} and E_{-beta}, then a third term E_{-D}^s when
s > 0, E_{-D-3}^|s| when s < 0 and none when s = 0.  So m3 = |s|, a property
of the record, the resolution is sporadic when 0 < s r_D <= 2, and the
Kronecker rank of V is the numerator of D, plus 3 r_D when s <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt

from .bridgeland import KIND_SEMICIRCLE, Wall, bridgeland_from_mori, wall_between
from .chern import ChernCharacter, _sum_ints, exceptional_character, line_bundle
from .exactnum import _as_int, fraction_str
from .exceptional import ExceptionalSlope, parent_pair
from .stability import _as_n, _delta, min_slope

__all__ = [
    "CASE_ABOVE_DOT",
    "CASE_AT_DOT",
    "CASE_BELOW_DOT",
    "CASE_TWO_S_GEQ",
    "CASE_TWO_S_LEQ",
    "ClassicalGaeta",
    "KroneckerData",
    "KroneckerNotApplicableError",
    "ResolutionData",
    "SeqTerm",
    "classical_gaeta",
    "collapsing_wall",
    "gaeta_resolution",
    "kronecker_data",
    "kronecker_euler",
]

CASE_TWO_S_LEQ = "TwoSLeq"
CASE_TWO_S_GEQ = "TwoSGeq"

# ResolutionData.case: mu below, at or above D, the slope with lambda in I_D
CASE_BELOW_DOT = "BelowDot"
CASE_AT_DOT = "AtDot"
CASE_ABOVE_DOT = "AboveDot"


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


def _normalize_terms(negatives, positives):
    """Drop zero multiplicities and sort each side by slope."""
    return tuple(tuple(sorted(t for t in side if t[1])) for side in (negatives, positives))


@dataclass(frozen=True)
class ResolutionData:
    """The generalized Gaeta resolution of I_Z for n general points.

    lam = gamma_inv(n) lies in I_D for D = dot_slope, and mu = lam except at
    s = 0, where mu = D.  alpha and beta are the parents of D.
    s = chi(E_D) - n r_D, read off min_slope(n), is the signed multiplicity of
    the third term, and m3 = |s|; case names the position of mu against D
    that the sign of s gives.  terms presents I_Z as (slope, mult) pairs,
    mult < 0 on the left of the complex.

    The record also carries its collapsing wall, wall, built and checked on
    first use and kept from then on, so the wall lives and dies with the
    record in _core_of's memo.
    """

    n: int
    mu: Fraction
    lam: Fraction
    alpha: ExceptionalSlope
    beta: ExceptionalSlope
    dot_slope: ExceptionalSlope
    case: str
    sporadic: bool
    m1: int
    m2: int
    s: int
    w_char: ChernCharacter
    w_sequence: tuple[SeqTerm, ...]
    iz_sequence: tuple[SeqTerm, ...]
    terms: tuple[tuple[ExceptionalSlope, int], ...]

    @property
    def m3(self) -> int:
        """Multiplicity |s| of the third bundle term."""
        return abs(self.s)

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
        return ChernCharacter._of(*_sum_ints((m, exceptional_character(t)) for t, m in self.terms))

    @cached_property
    def wall(self) -> Wall:
        """Innermost wall, where the ideal sheaf of n general points collapses.

        The destabilizing bundle is the last term of the resolution; its
        character is a memo read.  The sign of s = chi(E_D) - n r_D fixes that
        term: E_{-D} when s > 0, E_{-D-3} when s < 0, and E_{-beta} when s = 0,
        where the minimum is the exceptional slope D itself and the radius^2 is
        2 D_D + 1/4.  The first read builds the wall and runs its checks; the
        record keeps it only once they pass, so a repeat returns the same Wall.
        """
        n, d, s = self.n, self.dot_slope, self.s
        wall = wall_between(ChernCharacter._of(1, 0, -n), exceptional_character(self.terms[-1][0]))
        # the ABCH correspondence: the wall's center is the Mori edge -mu, moved by -3/2
        center = bridgeland_from_mori(-self.mu)
        if wall.kind != KIND_SEMICIRCLE or wall.center_s != center:
            raise ArithmeticError("collapsing wall for n=%d is not centered at -mu - 3/2" % n)
        # the radius checks compare cross products of radius^2 = x/y with each bound
        x, y = wall.radius_sq.numerator, wall.radius_sq.denominator
        u, v = center.numerator, center.denominator
        if x * v * v != y * (u * u - 2 * n * v * v):
            raise ArithmeticError("collapsing wall for n=%d is not a numerical wall of I_Z" % n)
        half = _delta(self.mu, d) if s else d.discriminant
        # 2 delta + 1/4 = (8 p + q)/(4 q) for delta = p/q
        if 4 * half.denominator * x != (8 * half.numerator + half.denominator) * y:
            raise ArithmeticError("collapsing wall for n=%d: radius^2 is not 2 delta + 1/4" % n)
        if s and 4 * x <= 5 * y:
            raise ArithmeticError("collapsing wall for n=%d: radius^2 <= 5/4" % n)
        return wall

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


def _exact_quotient(num: int, den: int, what: str, n: int) -> int:
    """num/den for ints, which must divide exactly."""
    m, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("%s is not an integer for n=%d" % (what, n))
    return m


def _term_slopes(a, b, dot, s: int) -> tuple[ExceptionalSlope, ...]:
    """The slopes of the resolution's bundle terms for s = chi(E_D) - n r_D, in order.

    E_{-alpha-3} and E_{-beta} for the parents a = alpha, b = beta of D, then
    E_{-D} when s > 0 and E_{-D-3} when s < 0; at s = 0 there is no third
    term.  The last one is the bundle that destabilizes I_Z at the collapsing
    wall.
    """
    slopes = (a.dual_twist(-3), b.dual_twist(0))
    return slopes + (dot.dual_twist(0 if s > 0 else -3),) if s else slopes


# resolutions kept by n, least recently used out first: `verify all` at its
# default depth sweeps n = 2..500 through the resolution, kronecker and walls
# suites, and 512 holds that whole sweep
_CORE_MEMO_SIZE = 512


@lru_cache(maxsize=_CORE_MEMO_SIZE)
def _core_of(n: int) -> ResolutionData:
    """The resolution of an int n >= 2 that _core has read: its one builder, memoized.

    It reads lambda, mu and s = chi(E_D) - n r_D off min_slope(n).  The sign
    of s names the case and _term_slopes the terms; s is the third term's
    signed multiplicity, so m3 = |s|.  m1 and m2 are read at lambda, which is
    mu except at s = 0, where mu = D.  Every check of the resolution runs
    here: m1 and m2 are integers, m1, m2 and k are positive, and the terms
    assemble to I_Z.  The last is one integer sum, chern._sum_ints, of
    m (R, C, D)/N over the characters (R, C, D)/N of the terms, against
    (1, 0, -n).  Then it builds the two exact sequences through W.
    """
    ms = min_slope(n)
    dot, s = ms.associated, ms.s
    a, b = parent_pair(dot)
    ra, ca = a.rank, a.value.numerator
    rb, cb = b.rank, b.value.numerator
    rd, cd = dot.rank, dot.value.numerator
    u, v = ms.lam.numerator, ms.lam.denominator
    if s > 0:
        # r_a (lambda - a) D and r_b (lambda - b + 3) D
        m1 = _exact_quotient((u * ra - ca * v) * cd, v * rd, "m1", n)
        m2 = _exact_quotient((u * rb - cb * v + 3 * v * rb) * cd, v * rd, "m2", n)
    else:
        # r_b (b - lambda)(D + 3) and r_a (3 + a - lambda)(D + 3)
        m1 = _exact_quotient((cb * v - u * rb) * (cd + 3 * rd), v * rd, "m1", n)
        m2 = _exact_quotient((3 * ra * v + ca * v - u * ra) * (cd + 3 * rd), v * rd, "m2", n)
    k = 3 * rd * m1 - m2
    if not (m1 > 0 and m2 > 0 and k > 0):
        raise ArithmeticError("m1, m2, k = %d, %d, %d for n=%d not all positive" % (m1, m2, k, n))

    # at s = 0 there is no third slope, so zip drops the third multiplicity
    mults = (-m1, k, s) if s > 0 else (-k, m1, s)
    terms = tuple(zip(_term_slopes(a, b, dot, s), mults))
    chars = tuple(exceptional_character(t) for t, _ in terms)
    r, c, d, den = _sum_ints(zip(mults, chars))
    if (r, c, d) != (den, 0, -n * den):
        raise ArithmeticError("resolution terms for n=%d do not assemble to I_Z" % n)

    first, second, *third = (
        SeqTerm("E(%s)^%d" % (fraction_str(t.value), abs(m)), abs(m) * ch, t.value, abs(m))
        for (t, m), ch in zip(terms, chars)
    )
    iz = ChernCharacter._of(1, 0, -n)
    iz_term = SeqTerm("I_Z", iz)
    if s > 0:
        w_term = SeqTerm("W", first.char - second.char)
        w_seq = (w_term, first, second)
        iz_seq = (w_term, third[0], iz_term)
    elif s < 0:
        w_term = SeqTerm("W", second.char - first.char)
        w_seq = (first, second, w_term)
        iz_seq = (third[0], w_term, iz_term)
    else:
        w_term = SeqTerm("W", iz)
        w_seq = ()
        iz_seq = (first, second, iz_term)
    return ResolutionData(
        n, ms.mu, ms.lam, a, b, dot,
        CASE_BELOW_DOT if s > 0 else CASE_ABOVE_DOT if s else CASE_AT_DOT,
        s > 0 and s * rd <= 2, m1, m2, s, w_term.char, w_seq, iz_seq, terms,
    )


def _core(n: int, what: str) -> ResolutionData:
    """The resolution of n, from the memo.

    The int is read before the memo is, so a bool, a float or an n < 2 raises
    as it would without a memo, though lru_cache keys True as 1 and 2.0 as 2.
    """
    if _as_int(n, "n") < 2:
        raise ValueError("the %s is computed for n >= 2" % what)
    return _core_of(n)


def gaeta_resolution(n: int) -> ResolutionData:
    """Resolution of the ideal sheaf of n >= 2 general points.

    The slope D = alpha.beta of the minimal-slope computation sorts n into
    three cases by the sign of s = chi(E_D) - n r_D: mu lies below D when
    s > 0, at D when s = 0 and above D when s < 0, and case records that
    position.  At s = 0 the ideal sheaf is resolved directly by the parent
    bundles and W degenerates to I_Z itself, so w_sequence is empty there.
    The record is the one _core_of built and keeps for n, which kronecker_data
    and collapsing_wall read too, so a repeat returns the same object and
    builds nothing.
    """
    return _core(n, "resolution")


def collapsing_wall(n: int) -> Wall:
    """Innermost wall, where the ideal sheaf of n >= 2 general points collapses.

    It is the wall of the resolution of n, gaeta_resolution(n).wall, which
    the record builds on first use and carries for as long as the memo keeps
    n, so a repeat returns the same Wall.
    """
    return _core(n, "collapsing wall").wall


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
        quot = ((m, line_bundle(k)) for k, m in self.quot_terms)
        sub = ((-m, line_bundle(k)) for k, m in self.sub_terms)
        return ChernCharacter._of(*_sum_ints((*quot, *sub)))


def classical_gaeta(n: int) -> ClassicalGaeta:
    """Resolution of n general points by line bundles in degrees -r..-r-2."""
    n = _as_n(n)
    r = (isqrt(8 * n + 1) - 1) // 2
    s = n - r * (r + 1) // 2
    if not 0 <= s <= r:
        raise ArithmeticError("s = %d is outside 0..%d for n=%d" % (s, r, n))
    if 2 * s <= r:
        case = CASE_TWO_S_LEQ
        sub = ((Fraction(-r - 1), r - 2 * s), (Fraction(-r - 2), s))
        quot = ((Fraction(-r), r - s + 1),)
    else:
        case = CASE_TWO_S_GEQ
        sub = ((Fraction(-r - 2), s),)
        quot = ((Fraction(-r), r - s + 1), (Fraction(-r - 1), 2 * s - r))
    out = ClassicalGaeta(n, r, s, case, sub, quot)
    if out.character()._ints != (1, 0, -n, 1):
        raise ArithmeticError("classical resolution for n=%d does not assemble to I_Z" % n)
    return out


class KroneckerNotApplicableError(ValueError):
    """No stable Kronecker module is attached to this n."""


@dataclass(frozen=True)
class KroneckerData:
    """Kronecker numerics of W: N arrows, dimension vector e = (b, a), rank of V.

    slope_in_window says b/a lies strictly inside the stability window
    (N - sqrt(N^2 - 4))/2 < b/a < (N + sqrt(N^2 - 4))/2, whose ends are the
    roots of the Euler form; with a > 0 that is chi(e, e) < 0.  kr_dim is
    1 - chi(e, e), the dimension of the moduli of modules of dimension e.
    """

    n: int
    N: int
    a: int
    b: int
    slope_in_window: bool
    rank_v: int
    kr_dim: int
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
    """chi between modules of dimension vectors e=(b,a), f=(b',a'); a bool raises TypeError."""
    b, a = (_as_int(x, "dimension vector entry") for x in e)
    bp, ap = (_as_int(x, "dimension vector entry") for x in f)
    return b * bp + a * ap - _as_int(N, "N") * b * ap


def kronecker_data(n: int) -> KroneckerData:
    """Kronecker-module invariants of the W bundle for n general points.

    It reads s, m1 and k from the memoized resolution of n, the record that
    gaeta_resolution returns, whose builder ran every check of the
    resolution.  Raises KroneckerNotApplicableError when the minimal
    slope is exceptional (the quiver moduli map is birational rather than
    fibered there; that is s = 0, and also the TriangularMinusOne n, where
    s = 1 and mu = lambda = D) or when the case is sporadic, 0 < s r_D <= 2,
    and W only exists as a two-term complex.  The sign of s = chi(E_D) - n r_D
    gives rank_v: the numerator of D, plus N = 3 r_D when s < 0.  The window
    test and kr_dim both read the one integer chi(e, e) = b^2 + a^2 - Nab.
    """
    res = _core(n, "resolution")
    dot = res.dot_slope
    if res.mu == dot.value:
        raise KroneckerNotApplicableError(
            "n=%d has exceptional minimal slope, the moduli map is birational" % n
        )
    if res.sporadic:
        raise KroneckerNotApplicableError(
            "n=%d is sporadic, W exists only as a two-term complex" % n
        )
    N = 3 * dot.rank
    a, b = res.m1, res.k
    chi = kronecker_euler(N, (b, a), (b, a))
    # r_D D is the numerator of D, and r_D (D + 3) when s < 0 is that plus N
    rank_v = dot.value.numerator + (N if res.s < 0 else 0)
    # dimension of the moduli of Kronecker modules of dimension vector (b, a)
    kr_dim = 1 - chi
    return KroneckerData(n, N, a, b, chi < 0, rank_v, kr_dim, kr_dim < 2 * n)
