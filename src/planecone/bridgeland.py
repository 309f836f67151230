"""Wall geometry for stability conditions on the plane.

A potential wall between two characters is a vertical line or a semicircle
in the (s,t) upper half-plane, stored by exact center and squared radius.
nested implements the center criterion for walls on a common side of a
vertical line, and the remaining helpers cover the walls between exceptional
bundles, the triads around them and a deterministic SVG picture.  The
innermost wall where the general n-point ideal sheaf is destabilized belongs
to the resolution of n (resolution.ResolutionData.wall), which builds it with
wall_between and bridgeland_from_mori; this module imports neither
resolution nor stability.

Walls are found in integers.  wall_between takes its three cross products of
the characters' integer numerators, whose common denominators cancel, and
builds one Fraction each for the center and the squared radius.  The closed
center and radius that exceptional_pair_wall and the collapsing wall check
their walls against are compared by integer cross products, never by Fraction
arithmetic, and so are walls against each other.  For center a/b, radius^2
x/y and a reference line s = u/v, the wall lies on the side of the sign of
g = av - ub exactly when g != 0 and g^2 y >= x b^2 v^2 (_wall_side); nested
orders two centers by one more cross product, is_empty reads the sign of
x, and exceptional_pair_wall tells two slopes apart by their addresses.

Each wall is built once and carried by the object it depends on.  The
collapsing wall of n depends on n alone and lives on the resolution record
of n that resolution._core_of keeps.  A pair wall depends on its two slopes;
when they are a slope and one of its parents, or the two parents of a slope,
the wall lives on that slope, which keeps the at most three walls of its
triad.  That slot is filled here, on first use, since exceptional cannot
import this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from .chern import ChernCharacter, _sum_ints, euler_pairing, exceptional_character
from .exactnum import _as_int, _as_ratio, _as_rational, fraction_str
from .exceptional import ExceptionalSlope, _as_slope, _epsilon_at, dot, epsilon, is_adjacent_pair

__all__ = [
    "KIND_SEMICIRCLE",
    "KIND_VERTICAL",
    "TriadSlopes",
    "Wall",
    "bridgeland_from_mori",
    "exceptional_pair_wall",
    "kernel_cokernel_slopes",
    "nested",
    "render_walls",
    "wall_between",
]

KIND_SEMICIRCLE = "Semicircle"
KIND_VERTICAL = "Vertical"


@dataclass(frozen=True)
class Wall:
    kind: str
    center_s: Fraction | None = None
    radius_sq: Fraction | None = None
    vertical_s: Fraction | None = None

    @classmethod
    def semicircle(cls, center, radius_sq) -> "Wall":
        return cls(KIND_SEMICIRCLE, _as_rational(center), _as_rational(radius_sq))

    @classmethod
    def vertical(cls, s) -> "Wall":
        return cls(KIND_VERTICAL, vertical_s=_as_rational(s))

    def is_empty(self) -> bool:
        """A semicircle whose radius^2 is not positive, read off its numerator's sign."""
        return self.kind == KIND_SEMICIRCLE and self.radius_sq.numerator <= 0

    def to_json(self) -> dict:
        if self.kind == KIND_VERTICAL:
            return {"kind": self.kind, "s": fraction_str(self.vertical_s)}
        return {
            "kind": self.kind,
            "center": fraction_str(self.center_s),
            "radius_sq": fraction_str(self.radius_sq),
        }


def wall_between(ch1: ChernCharacter, ch2: ChernCharacter) -> Wall:
    """Potential wall where the two characters have equal (s,t)-slope.

    The three cross products are taken of the characters' integer numerators;
    the common denominators scale all three alike, so the center
    x = x_cross/denom and radius^2 = x^2 - 2 y_cross/denom are unchanged.
    """
    r, c, d, _ = ch1._ints
    rp, cp, dp, _ = ch2._ints
    denom = r * cp - rp * c
    x_cross = r * dp - rp * d
    y_cross = c * dp - cp * d
    if denom == 0:
        if x_cross == 0:
            if y_cross == 0:
                raise ValueError("proportional characters do not give a wall")
            raise ValueError("the wall locus of these characters is empty")
        return Wall.vertical(Fraction(y_cross, x_cross))
    return Wall.semicircle(
        Fraction(x_cross, denom), Fraction(x_cross * x_cross - 2 * y_cross * denom, denom * denom)
    )


def _wall_side(w: Wall, ref: Fraction) -> int:
    """-1 or +1 when w lies (weakly) left or right of s = ref, decided in integers.

    For center a/b, ref = u/v and radius^2 x/y, the gap from the line is
    a/b - u/v = g/(bv) with g = av - ub, and w lies on one side exactly when
    g != 0 and gap^2 >= radius^2, that is g^2 y >= x b^2 v^2: the side is
    the sign of g.  A wall that touches the line counts as a side.
    """
    if w.kind != KIND_SEMICIRCLE:
        raise ValueError("nesting compares semicircular walls")
    b, v = w.center_s.denominator, ref.denominator
    g = w.center_s.numerator * v - ref.numerator * b
    if g and g * g * w.radius_sq.denominator >= w.radius_sq.numerator * (b * v) ** 2:
        return 1 if g > 0 else -1
    raise ValueError("wall crosses the vertical line s = %s" % ref)


def nested(inner: Wall, outer: Wall, reference_slope) -> bool:
    """Center criterion: on a common side, nesting is the center ordering.

    For walls left of the reference line the radius grows as the center
    moves left, so inner sits strictly inside outer exactly when its center
    is strictly to the right; mirrored on the right side.  Identical centers
    give False, and walls on opposite sides raise.  Each side is decided by
    _wall_side's cross products and the centers by one more, so a Fraction
    reference slope builds no Fraction.
    """
    ref = _as_rational(reference_slope)
    side = _wall_side(inner, ref)
    if side != _wall_side(outer, ref):
        raise ValueError("walls lie on opposite sides of s = %s" % ref)
    # inner's center less outer's has the sign of c, which is -side when nested
    a, b = inner.center_s.numerator, inner.center_s.denominator
    c = a * outer.center_s.denominator - outer.center_s.numerator * b
    return side * c < 0


def bridgeland_from_mori(y) -> Fraction:
    """Center x = y - 3/2 of the wall for the Mori coordinate y."""
    u, v = _as_ratio(y)
    return Fraction(2 * u - 3 * v, 2 * v)


def exceptional_pair_wall(alpha, beta) -> Wall:
    """Wall between the exceptional bundles of two distinct slopes.

    The center always matches the closed formula
    (alpha+beta)/2 + (D_beta - D_alpha)/(alpha-beta); the closed radius
    formula additionally needs adjacency, and is checked only then.

    A wall of a triad lives on the triad's slope, which _triad_home finds
    from the two addresses: the first call builds it and runs both checks,
    and leaves it in that slope's _walls, so a repeat, in either order,
    returns the same Wall.  Any other pair's wall is built and checked on
    each call and kept nowhere.
    """
    a, b = _as_slope(alpha), _as_slope(beta)
    home = _triad_home(a, b)
    if home is None:
        return _pair_wall(a, b)
    slope, slot = home
    wall = slope._walls.get(slot)
    if wall is None:
        wall = slope._walls[slot] = _pair_wall(a, b)
    return wall


def _triad_home(a: ExceptionalSlope, b: ExceptionalSlope):
    """(c, slot) when (a, b) is a pair of c's triad and W(a, b) lives in c._walls[slot], else None.

    Decided on the addresses p/2^q of a and b.  When a is the deeper, q > 0,
    b is a parent of a exactly when the two are consecutive at a's level,
    |b_p 2^(q - b_q) - p| = 1, and the wall lives on a, the child, at the
    slot of that difference: -1 for its lower parent, +1 for its upper one.
    The parents of a slope of level >= 2 are a slope and one of its own
    parents, so the pair is a child with its parent again.  Two integers
    1 or 2 apart are the parents of their midpoint k + 1/2 or k, and their
    wall lives there, at slot 0; that midpoint is read by _epsilon_at, one
    memo read when it is held, as the dot slope of a resolution is.
    """
    p, q, pb, qb = a.address.p, a.address.q, b.address.p, b.address.q
    if (p, q) == (pb, qb):
        raise ValueError("a wall needs two distinct slopes")
    if q < qb:
        a, p, q, pb, qb = b, pb, qb, p, q
    if q > qb:
        gap = (pb << (q - qb)) - p
        return (a, gap) if gap == 1 or gap == -1 else None
    if q == 0 and 0 < abs(pb - p) <= 2:
        return _epsilon_at(p + pb, 1), 0
    return None


def _pair_wall(a: ExceptionalSlope, b: ExceptionalSlope) -> Wall:
    """The wall of two distinct slopes, built from their characters and checked."""
    wall = wall_between(exceptional_character(a), exceptional_character(b))
    # with a = c/r, b = c'/r', h = r r', e = h (a - b) and k = r'^2 - r^2, the ratio
    # (D_b - D_a)/(a - b) is k/(2 h e), so the closed center is ((c r' + c' r) e + k)/(2 h e)
    r, c, rp, cp = a.rank, a.value.numerator, b.rank, b.value.numerator
    h, e, k = r * rp, c * rp - cp * r, rp * rp - r * r
    x = wall.center_s
    closed = (c * rp + cp * r) * e + k
    if wall.kind != KIND_SEMICIRCLE or 2 * h * e * x.numerator != closed * x.denominator:
        raise ArithmeticError("pair wall of %s, %s misses its closed center" % (a.value, b.value))
    if is_adjacent_pair(a, b):
        # (gap/2)^2 - P(gap) + ratio^2 at gap = -g/h, g = |e|, is
        # (6 g^3 h - g^4 - 4 g^2 h^2 + k^2)/(4 g^2 h^2)
        g, x = abs(e), wall.radius_sq
        closed = 6 * g ** 3 * h - g ** 4 - 4 * (g * h) ** 2 + k * k
        if 4 * (g * h) ** 2 * x.numerator != closed * x.denominator:
            raise ArithmeticError(
                "pair wall of %s, %s misses its closed radius" % (a.value, b.value)
            )
    return wall


@dataclass(frozen=True)
class TriadSlopes:
    """Slopes of the kernel and cokernel bundles around a triad.

    zeta and omega are the kernel/cokernel slopes selected by p mod 4; the
    two balance flags record whether the character identities
    ch(E_zeta) + ch(E_beta) = chi(E_alpha, E_beta) ch(E_alpha) and
    ch(E_beta) + ch(E_omega) = chi(E_beta, E_eta) ch(E_eta) hold.
    """

    p: int
    q: int
    branch: int
    zeta: ExceptionalSlope
    alpha: ExceptionalSlope
    beta: ExceptionalSlope
    eta: ExceptionalSlope
    omega: ExceptionalSlope
    hom_alpha_beta: int
    hom_beta_eta: int
    balance_first: bool
    balance_second: bool


def _integer_pairing(ch1, ch2) -> int:
    value = euler_pairing(ch1, ch2)
    if value.denominator != 1:
        raise ArithmeticError("euler pairing %s of %r, %r is not an integer" % (value, ch1, ch2))
    return int(value)


def kernel_cokernel_slopes(p: int, q: int) -> TriadSlopes:
    """Kernel and cokernel slopes of the canonical triad maps at p/2^q."""
    p, q = _as_int(p, "p"), _as_int(q, "q")
    if p % 2:
        raise ValueError("p must be even")
    if q < 1:
        raise ValueError("q must be a positive integer")
    pow2 = 1 << q
    alpha = epsilon((p, q))
    beta = epsilon((p + 1, q))
    eta = epsilon((p + 2, q))
    if beta.value != dot(alpha, eta):
        raise ArithmeticError("slope at (%d, %d) is not its neighbours' product" % (p + 1, q))
    branch = p % 4
    if branch == 0:
        zeta = epsilon((p + 4 - 3 * pow2, q))
        omega = epsilon((p + 4, q))
    else:
        zeta = epsilon((p - 2, q))
        omega = epsilon((p - 2 + 3 * pow2, q))
    ca = exceptional_character(alpha)
    cb = exceptional_character(beta)
    ce = exceptional_character(eta)
    hom_ab = _integer_pairing(ca, cb)
    hom_be = _integer_pairing(cb, ce)
    # each balance holds exactly when its integer sum is zero in R, C and D
    first = _sum_ints(((1, exceptional_character(zeta)), (1, cb), (-hom_ab, ca)))
    second = _sum_ints(((1, cb), (1, exceptional_character(omega)), (-hom_be, ce)))
    balance_first = first[:3] == (0, 0, 0)
    balance_second = second[:3] == (0, 0, 0)
    return TriadSlopes(
        p, q, branch, zeta, alpha, beta, eta, omega,
        hom_ab, hom_be, balance_first, balance_second,
    )


# -- SVG rendering -----------------------------------------------------------

_QUANTUM = Decimal("0.000000000001")


def _dec(x: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 40
        return Decimal(x.numerator) / Decimal(x.denominator)


def _dec_sqrt(x: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 40
        return (Decimal(x.numerator) / Decimal(x.denominator)).sqrt()


def _fmt(x) -> str:
    d = x if isinstance(x, Decimal) else _dec(x)
    q = d.quantize(_QUANTUM, rounding=ROUND_HALF_EVEN)
    if q == 0:
        return "0"
    return format(q.normalize(), "f")


def render_walls(walls) -> str:
    """Deterministic SVG of the given walls, such as a collapsing wall and pair walls.

    Geometry is computed exactly and only formatted at 12 decimal places, so
    identical inputs give byte-identical documents.  Empty walls are skipped
    with a comment node.
    """
    arcs = []
    verticals = [Decimal(0)]
    comments = []
    xs = [Decimal(0)]
    top = Decimal(0)
    for w in walls:
        if w.kind == KIND_VERTICAL:
            verticals.append(_dec(w.vertical_s))
            xs.append(_dec(w.vertical_s))
        elif w.radius_sq > 0:
            c = _dec(w.center_s)
            rho = _dec_sqrt(w.radius_sq)
            arcs.append((c, rho))
            xs.extend([c - rho, c + rho])
            top = max(top, rho)
        else:
            comments.append(
                "<!-- omitted empty wall center %s radius_sq %s -->"
                % (fraction_str(w.center_s), fraction_str(w.radius_sq))
            )
    if top == 0:
        top = Decimal(1)
    xmin, xmax = min(xs), max(xs)
    span = xmax - xmin
    if span == 0:
        span = Decimal(1)
    margin = span * Decimal("0.1")
    ytop = top * Decimal("1.1")
    width = span + 2 * margin
    height = ytop + margin
    stroke = span * Decimal("0.005")
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="%s %s %s %s">'
        % (_fmt(xmin - margin), _fmt(-ytop), _fmt(width), _fmt(height)),
        '<line x1="%s" y1="0" x2="%s" y2="0" stroke="black" stroke-width="%s"/>'
        % (_fmt(xmin - margin), _fmt(xmax + margin), _fmt(stroke)),
    ]
    for v in verticals:
        lines.append(
            '<line x1="%s" y1="0" x2="%s" y2="%s" stroke="black" stroke-width="%s"/>'
            % (_fmt(v), _fmt(v), _fmt(-ytop), _fmt(stroke))
        )
    for c, rho in arcs:
        lines.append(
            '<path d="M %s 0 A %s %s 0 0 0 %s 0" fill="none" stroke="black" stroke-width="%s"/>'
            % (_fmt(c + rho), _fmt(rho), _fmt(rho), _fmt(c - rho), _fmt(stroke))
        )
    lines.extend(comments)
    lines.append("</svg>")
    return "\n".join(lines)
