"""Replayable verification sweeps, exposed through the CLI verify command.

Each suite exhaustively re-checks one family of identities over a
configurable range and reports aggregate pass/fail results with the first
failure spelled out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bridgeland import exceptional_pair_wall, kernel_cokernel_slopes, nested
from .chern import dual, euler_pairing, exceptional_character
from .contfrac import check_exceptional_cf
from .exactnum import _as_int, fraction_str
from .exceptional import enumerate_slopes, epsilon
from .resolution import classical_gaeta, collapsing_wall, gaeta_resolution, kronecker_data
from .resolution import KroneckerNotApplicableError
from .stability import gamma, gamma_inv

__all__ = [
    "CheckResult",
    "format_report",
    "run_suite",
]

PAIR_DEPTH = 8
CHAIN_LENGTH = 6


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _aggregate(name: str, failures: list, total: int) -> CheckResult:
    if failures:
        return CheckResult(
            name, False, "%d/%d failed, first: %s" % (len(failures), total, failures[0])
        )
    return CheckResult(name, True, "%d checks" % total)


def _suite_cf(depth: int) -> list[CheckResult]:
    slopes = enumerate_slopes(depth, 0, 1)
    flag_failures = []
    congruence_failures = []
    for s in slopes:
        report = check_exceptional_cf(s)
        if not all(report.values()):
            flag_failures.append("slope %s: %s" % (fraction_str(s.value), report))
        # rank is the denominator of the slope, so rank * value is its numerator
        num = s.value.numerator
        if (num * num + 1) % s.rank != 0:
            congruence_failures.append("slope %s" % fraction_str(s.value))
    return [
        _aggregate("cf structure flags", flag_failures, len(slopes)),
        _aggregate("numerator congruence", congruence_failures, len(slopes)),
    ]


def _ends_apart(c: int, r: int, d: int, s: int) -> bool:
    """alpha + x_alpha <= beta - x_beta for slopes alpha = c/r < beta = d/s, in integers.

    Times 2rs, the gap between the two ends is K + s sqrt(9r^2 - 4) +
    r sqrt(9s^2 - 4) with K = 2(dr - cs) - 6rs.  It is nonnegative when K >= 0;
    otherwise squaring -K <= s sqrt(9r^2 - 4) + r sqrt(9s^2 - 4) leaves
    M <= 2rs sqrt((9r^2 - 4)(9s^2 - 4)) for M = K^2 - s^2(9r^2 - 4) - r^2(9s^2 - 4),
    which holds when M <= 0 or M^2 <= 4r^2 s^2 (9r^2 - 4)(9s^2 - 4).
    """
    k = 2 * (d * r - c * s) - 6 * r * s
    if k >= 0:
        return True
    ra, sb = 9 * r * r - 4, 9 * s * s - 4
    m = k * k - s * s * ra - r * r * sb
    return m <= 0 or m * m <= 4 * r * r * s * s * ra * sb


def _suite_intervals(depth: int) -> list[CheckResult]:
    """Every pair of intervals I_alpha, alpha of depth <= depth in [0, 3], is disjoint.

    Each pair alpha = c/r < beta = d/s is decided by _ends_apart in integers:
    the sign of K = 2(dr - cs) - 6rs, and when K < 0 that of
    M = K^2 - s^2(9r^2 - 4) - r^2(9s^2 - 4) and of M^2 against
    4r^2 s^2 (9r^2 - 4)(9s^2 - 4).  No interval end is built.
    """
    slopes = enumerate_slopes(depth, 0, 3)
    ints = [(s.value.numerator, s.rank) for s in slopes]
    failures = []
    total = 0
    for i, (lo, (c, r)) in enumerate(zip(slopes, ints)):
        for hi, (d, s) in zip(slopes[i + 1 :], ints[i + 1 :]):
            total += 1
            if not _ends_apart(c, r, d, s):
                failures.append(
                    "overlap I_%s and I_%s"
                    % (fraction_str(lo.value), fraction_str(hi.value))
                )
    return [_aggregate("interval disjointness", failures, total)]


def _suite_gamma(depth: int) -> list[CheckResult]:
    failures = []
    prev = Fraction(-1)
    for n in range(1, depth + 1):
        mu = gamma_inv(Fraction(n))
        if gamma(mu) != n:
            failures.append("gamma round trip failed at %d" % n)
        if mu <= prev:
            failures.append("gamma_inv not increasing at %d" % n)
        prev = mu
    return [_aggregate("gamma inversion", failures, depth)]


def _suite_resolution(depth: int) -> list[CheckResult]:
    assemble_failures = []
    rank_failures = []
    bound_failures = []
    m3_failures = []
    classical_failures = []
    classical_total = 0
    for n in range(2, depth + 1):
        res = gaeta_resolution(n)
        ideal = res.ideal_character()
        if ideal._ints != (1, 0, -n, 1):
            assemble_failures.append("n=%d terms" % n)
        rd = res.dot_slope.rank
        pairing = euler_pairing(dual(exceptional_character(res.dot_slope)), ideal)
        # chi(E_D^*, I_Z) = chi(E_D (x) I_Z) is the signed s, and m3 = |s|; the
        # dual is of D's character, not the term E_{-D} built from its address
        if pairing != res.s:
            m3_failures.append("n=%d m3 vs pairing" % n)
        if res.s > 0 and not res.sporadic:
            if res.m3 * rd != 1 + res.w_char.r:
                rank_failures.append("n=%d rank identity" % n)
            ratio = Fraction(res.m1, res.m2)
            # rd x_D < m1/m2 says D + m1/(m2 rd) lies right of I_D
            above = res.dot_slope.side(res.dot_slope.value + Fraction(res.m1, res.m2 * rd)) > 0
            right = Fraction(rd, 3 * res.beta.rank * rd - res.alpha.rank)
            if not (above and ratio <= right):
                bound_failures.append("n=%d multiplicity bounds" % n)
        if res.dot_slope.rank == 1:
            classical_total += 1
            if res.complex_terms() != classical_gaeta(n).complex_terms():
                classical_failures.append("n=%d classical mismatch" % n)
    total = depth - 1
    return [
        _aggregate("character assembly", assemble_failures, total),
        _aggregate("m3 against the Euler pairing", m3_failures, total),
        _aggregate("rank identity", rank_failures, total),
        _aggregate("multiplicity bounds", bound_failures, total),
        _aggregate("integer-slope classical agreement", classical_failures, classical_total),
    ]


def _suite_kronecker(depth: int) -> list[CheckResult]:
    failures = []
    applicable = 0
    for n in range(2, depth + 1):
        try:
            # the resolution of n, which the resolution suite left in the memo
            kd = kronecker_data(n)
        except KroneckerNotApplicableError:
            continue
        applicable += 1
        if not kd.slope_in_window:
            failures.append("n=%d slope outside window" % n)
        if not kd.hilb_dim_excess:
            failures.append("n=%d quiver dimension not smaller" % n)
    return [_aggregate("kronecker window and dimension", failures, applicable)]


def _triad_configs(depth: int):
    for q in range(1, depth + 1):
        for p in range(0, 1 << q, 2):
            yield p, q


def _below(x: Fraction, p: int, q: int) -> bool:
    """x < p/q for q > 0, as x's numerator times q against p times its denominator."""
    return x.numerator * q < p * x.denominator


def _center_ratio(a, b) -> tuple[int, int]:
    """(N, M) with (D_b - D_a)/(a - b) = N/M, for slopes a = c/r and b = d/s.

    D_x = 1/2 - 1/(2 rank^2), so D_b - D_a = (s^2 - r^2)/(2 r^2 s^2) and
    a - b = (cs - dr)/(rs): N = s^2 - r^2 and M = 2rs(cs - dr), which has
    the sign of a - b.
    """
    r, s = a.rank, b.rank
    return s * s - r * r, 2 * r * s * (a.value.numerator * s - b.value.numerator * r)


def _suite_walls(depth: int) -> list[CheckResult]:
    """The collapsing walls, the pair walls of each triad, their nesting and their chains.

    Every bound is decided in integers, each by cross-multiplying the
    Fraction inequality it stands for, and nested decides in integers too.
    Every pair wall the suite reads is of a slope and one of its parents, so
    it lives on that slope, and each collapsing wall lives on the resolution
    record of its n: a warm round builds no wall, and reads each through
    exceptional_pair_wall or collapsing_wall.
    """
    collapse_failures = []
    for n in range(2, depth + 1):
        wall = collapsing_wall(n)
        # lambda from the memoized resolution the wall was read from; for lambda = u/v,
        # (lambda + 3/2)^2 - 2n <= 5/4 reads (2u + 3v)^2 <= (8n + 5) v^2
        lam = gaeta_resolution(n).lam
        u, v = lam.numerator, lam.denominator
        if (2 * u + 3 * v) ** 2 <= (8 * n + 5) * v * v:
            collapse_failures.append("n=%d radius bound" % n)
        if wall.is_empty():
            collapse_failures.append("n=%d empty collapsing wall" % n)
    results = [_aggregate("collapsing walls", collapse_failures, depth - 1)]

    radius_failures = []
    ratio_failures = []
    nest_failures = []
    chain_failures = []
    balance_failures = []
    pair_total = 0
    chain_total = 0
    # the chains and balances take the triads of level <= CHAIN_LENGTH, a prefix
    # of this loop's because CHAIN_LENGTH <= PAIR_DEPTH
    for p, q in _triad_configs(min(depth, PAIR_DEPTH)):
        alpha = epsilon((p, q))
        beta = epsilon((p + 1, q))
        eta = epsilon((p + 2, q))
        pair_total += 1
        chained = q <= CHAIN_LENGTH
        # link 0 of alpha's chain is beta and link j + 1 is alpha.(link j), so link j
        # is ((p << j) + 1, q + j); links 0 and 1 are also the left nesting pair
        links = [
            exceptional_pair_wall(alpha, epsilon(((p << j) + 1, q + j)))
            for j in range(CHAIN_LENGTH if chained else 2)
        ]
        right = exceptional_pair_wall(beta, eta)
        for x, y, wall in ((alpha, beta, links[0]), (beta, eta, right)):
            if not _below(wall.radius_sq, 5, 4):
                radius_failures.append("pair (%s, %s)" % (x.value, y.value))
        # r1 and r2 are N/M for these pairs, and r1 < -1, r2 > 1 read, times M^2,
        # M(N + M) < 0 and M(N - M) > 0 whatever the sign of M
        (n1, m1), (n2, m2) = _center_ratio(alpha, beta), _center_ratio(beta, eta)
        if q == 1:
            ok = 4 * n1 == -3 * m1 and 4 * n2 == 3 * m2
        else:
            ok = m1 * (n1 + m1) < 0 and m2 * (n2 - m2) > 0
        if not ok:
            ratio_failures.append("triad p=%d q=%d" % (p, q))
        # beta.eta is the child of the adjacent addresses (p + 1, q) and (p + 2, q)
        left_ok = nested(links[0], links[1], alpha.value)
        right_ok = nested(
            right, exceptional_pair_wall(eta, epsilon((2 * p + 3, q + 1))), eta.value
        )
        if not (left_ok and right_ok and _below(beta.discriminant, 1, 2)):
            nest_failures.append("triad p=%d q=%d" % (p, q))
        if not chained:
            continue
        chain_total += 1
        radii = [w.radius_sq for w in links]
        if not all(
            _below(r, s.numerator, s.denominator) and _below(s, 5, 4)
            for r, s in zip(radii, radii[1:])
        ):
            chain_failures.append("chain at p=%d q=%d" % (p, q))
        triad = kernel_cokernel_slopes(p, q)
        if not (triad.balance_first and triad.balance_second):
            balance_failures.append("triad p=%d q=%d" % (p, q))
    results.append(_aggregate("pair wall radius bound", radius_failures, 2 * pair_total))
    results.append(_aggregate("center ratio estimates", ratio_failures, pair_total))
    results.append(_aggregate("pair wall nesting", nest_failures, pair_total))
    results.append(_aggregate("chain radius growth", chain_failures, chain_total))
    results.append(_aggregate("triad character balances", balance_failures, chain_total))
    return results


# name: (suite, default depth, least depth, most depth); the suites that check
# n = 2..depth would pass on no input below depth 2.  cf and intervals enumerate
# the slopes of level <= depth, whose number doubles with each level, so their
# time grows about 3x (cf) and 4.5x (intervals) per level; the most depth is the
# deepest level each finishes in about a minute on a 2-core machine with Python
# 3.11 (cf: 5.6 s at 14, 19 s at 15, 66 s at 16; intervals: 9.3 s at 10, 53 s at
# 11).
_SUITES = {
    "cf": (_suite_cf, 10, 1, 16),
    "intervals": (_suite_intervals, 8, 1, 11),
    "gamma": (_suite_gamma, 1000, 1, None),
    "resolution": (_suite_resolution, 500, 2, None),
    "kronecker": (_suite_kronecker, 500, 2, None),
    "walls": (_suite_walls, 500, 2, None),
}
DEFAULT_DEPTHS = {name: default for name, (_, default, _, _) in _SUITES.items()}


def run_suite(suite: str, depth: int | None = None) -> list[CheckResult]:
    """Run one named suite, or all of them, at the given (or default) depth.

    depth is None or an int; a bool, a float or a string raises TypeError.
    Every selected suite's depth is checked against its least and most depth
    before any suite runs, and a ValueError names the suite.
    """
    if depth is not None:
        depth = _as_int(depth, "depth")
        if depth < 1:
            raise ValueError("depth must be at least 1, got %d" % depth)
    if suite != "all" and suite not in _SUITES:
        raise ValueError("unknown suite %r" % suite)
    depths = {}
    for name in _SUITES if suite == "all" else (suite,):
        _, default, least, most = _SUITES[name]
        d = depths[name] = default if depth is None else depth
        if d < least:
            message = "%s checks n = %d..depth, so depth must be at least %d"
            raise ValueError(message % (name, least, least))
        if most is not None and d > most:
            message = "%s enumerates every slope of level <= depth, so depth must be at most %d"
            raise ValueError(message % (name, most))
    return [result for name, d in depths.items() for result in _SUITES[name][0](d)]


def format_report(results: list[CheckResult]) -> tuple[str, int]:
    """Render results as text plus a process exit code (0 iff all passed)."""
    lines = []
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        failed += 0 if res.passed else 1
        lines.append("%s %s (%s)" % (status, res.name, res.detail))
    lines.append(
        "%d/%d checks passed" % (len(results) - failed, len(results))
    )
    return "\n".join(lines), 0 if failed == 0 else 1
