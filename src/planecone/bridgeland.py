"""Wall geometry for stability conditions on the plane.

A potential wall between two characters is a vertical line or a semicircle
in the (s,t) upper half-plane, stored by exact center and squared radius.
collapsing_wall builds the innermost wall where the general n-point ideal
sheaf is destabilized, nested implements the center criterion for walls on a
common side of a vertical line, and the remaining helpers cover the walls
between exceptional bundles and a deterministic SVG picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

from .chern import ChernCharacter, euler_pairing, exceptional_character
from .exactnum import fraction_str
from .exceptional import (
    ExceptionalSlope,
    dot,
    epsilon,
    exceptional_slope_of,
    hilbert_poly,
    is_adjacent_pair,
    parent_pair,
)
from .stability import CASE_AT_DOT, CASE_BELOW_DOT, _delta, min_slope

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
        return cls(KIND_SEMICIRCLE, Fraction(center), Fraction(radius_sq))

    @classmethod
    def vertical(cls, s) -> "Wall":
        return cls(KIND_VERTICAL, vertical_s=Fraction(s))

    def is_empty(self) -> bool:
        return self.kind == KIND_SEMICIRCLE and self.radius_sq <= 0

    def to_json(self) -> dict:
        if self.kind == KIND_VERTICAL:
            return {"kind": self.kind, "s": fraction_str(self.vertical_s)}
        return {
            "kind": self.kind,
            "center": fraction_str(self.center_s),
            "radius_sq": fraction_str(self.radius_sq),
        }


def wall_between(ch1: ChernCharacter, ch2: ChernCharacter) -> Wall:
    """Potential wall where the two characters have equal (s,t)-slope."""
    r, c, d = ch1.astuple()
    rp, cp, dp = ch2.astuple()
    denom = r * cp - rp * c
    x_cross = r * dp - rp * d
    y_cross = c * dp - cp * d
    if denom == 0:
        if x_cross == 0:
            if y_cross == 0:
                raise ValueError("proportional characters do not give a wall")
            raise ValueError("the wall locus of these characters is empty")
        return Wall.vertical(y_cross / x_cross)
    x = x_cross / denom
    return Wall.semicircle(x, x * x - 2 * y_cross / denom)


def collapsing_wall(n: int) -> Wall:
    """Innermost wall, where the ideal sheaf of n general points collapses.

    The destabilizing bundle is read off from the minimal-slope case: E_{-D}
    from below, E_{-D-3} from above, and E_{-beta} when the minimum is the
    exceptional slope D itself.
    """
    if n < 2:
        raise ValueError("the collapsing wall is computed for n >= 2")
    ms = min_slope(n)
    d = ms.associated
    if ms.position == CASE_AT_DOT:
        destabilizer = parent_pair(d)[1].dual_twist(0)
    elif ms.position == CASE_BELOW_DOT:
        destabilizer = d.dual_twist(0)
    else:
        destabilizer = d.dual_twist(-3)
    wall = wall_between(ChernCharacter(1, 0, -n), exceptional_character(destabilizer))
    center = -(ms.mu + Fraction(3, 2))
    assert wall.kind == KIND_SEMICIRCLE and wall.center_s == center
    assert wall.radius_sq == center * center - 2 * n
    if ms.position == CASE_AT_DOT:
        assert wall.radius_sq == 2 * d.discriminant + Fraction(1, 4)
    else:
        assert wall.radius_sq == 2 * _delta(ms.mu, d) + Fraction(1, 4)
        assert wall.radius_sq > Fraction(5, 4)
    return wall


def _wall_side(w: Wall, ref: Fraction) -> int:
    """-1 or +1 when w lies (weakly) left or right of s = ref."""
    if w.kind != KIND_SEMICIRCLE:
        raise ValueError("nesting compares semicircular walls")
    gap = w.center_s - ref
    if gap < 0 and gap * gap >= w.radius_sq:
        return -1
    if gap > 0 and gap * gap >= w.radius_sq:
        return 1
    raise ValueError("wall crosses the vertical line s = %s" % ref)


def nested(inner: Wall, outer: Wall, reference_slope) -> bool:
    """Center criterion: on a common side, nesting is the center ordering.

    For walls left of the reference line the radius grows as the center
    moves left, so inner sits strictly inside outer exactly when its center
    is strictly to the right; mirrored on the right side.  Identical centers
    give False, and walls on opposite sides raise.
    """
    ref = Fraction(reference_slope)
    side = _wall_side(inner, ref)
    if side != _wall_side(outer, ref):
        raise ValueError("walls lie on opposite sides of s = %s" % ref)
    if inner.center_s == outer.center_s:
        return False
    if side < 0:
        return inner.center_s > outer.center_s
    return inner.center_s < outer.center_s


def mori_from_bridgeland(x) -> Fraction:
    """Conjectural Mori coordinate y = x + 3/2 of the wall centered at x."""
    return Fraction(x) + Fraction(3, 2)


def bridgeland_from_mori(y) -> Fraction:
    """Inverse map x = y - 3/2."""
    return Fraction(y) - Fraction(3, 2)


def exceptional_pair_wall(alpha, beta) -> Wall:
    """Wall between the exceptional bundles of two distinct slopes.

    The center always matches the closed formula
    (alpha+beta)/2 + (D_beta - D_alpha)/(alpha-beta); the closed radius
    formula additionally needs adjacency, and is asserted only then.
    """
    a = alpha if isinstance(alpha, ExceptionalSlope) else exceptional_slope_of(alpha)
    b = beta if isinstance(beta, ExceptionalSlope) else exceptional_slope_of(beta)
    if a.value == b.value:
        raise ValueError("a wall needs two distinct slopes")
    wall = wall_between(exceptional_character(a), exceptional_character(b))
    ratio = (b.discriminant - a.discriminant) / (a.value - b.value)
    assert wall.kind == KIND_SEMICIRCLE
    assert wall.center_s == (a.value + b.value) / 2 + ratio
    if is_adjacent_pair(a, b):
        gap = -abs(a.value - b.value)
        assert wall.radius_sq == (gap / 2) ** 2 - hilbert_poly(gap) + ratio * ratio
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

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "branch": self.branch,
            "zeta": fraction_str(self.zeta.value),
            "alpha": fraction_str(self.alpha.value),
            "beta": fraction_str(self.beta.value),
            "eta": fraction_str(self.eta.value),
            "omega": fraction_str(self.omega.value),
            "hom_alpha_beta": self.hom_alpha_beta,
            "hom_beta_eta": self.hom_beta_eta,
            "balance_first": self.balance_first,
            "balance_second": self.balance_second,
        }


def _integer_pairing(ch1, ch2) -> int:
    value = euler_pairing(ch1, ch2)
    assert value.denominator == 1
    return int(value)


def kernel_cokernel_slopes(p: int, q: int) -> TriadSlopes:
    """Kernel and cokernel slopes of the canonical triad maps at p/2^q."""
    if p % 2:
        raise ValueError("p must be even")
    if q < 1:
        raise ValueError("q must be a positive integer")
    pow2 = 1 << q
    alpha = epsilon((p, q))
    beta = epsilon((p + 1, q))
    eta = epsilon((p + 2, q))
    assert beta.value == dot(alpha, eta)
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
    balance_first = exceptional_character(zeta) + cb == hom_ab * ca
    balance_second = cb + exceptional_character(omega) == hom_be * ce
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


def render_walls(n: int, extra=()) -> str:
    """Deterministic SVG of the collapsing wall for n plus any extra walls.

    Geometry is computed exactly and only formatted at 12 decimal places, so
    identical inputs give byte-identical documents.  Empty walls are skipped
    with a comment node.
    """
    walls = [collapsing_wall(n)]
    walls.extend(extra)
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
