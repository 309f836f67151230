"""Replayable verification sweeps, exposed through the CLI verify command.

Each suite exhaustively re-checks one family of identities over a
configurable range and reports aggregate pass/fail results with the first
failure spelled out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bridgeland import (
    collapsing_wall,
    exceptional_pair_wall,
    kernel_cokernel_slopes,
    nested,
)
from .chern import exceptional_character, euler_pairing
from .contfrac import check_exceptional_cf
from .exactnum import fraction_str, surd_cmp
from .exceptional import enumerate_slopes, epsilon
from .resolution import CASE_BELOW_DOT, classical_gaeta, gaeta_resolution, kronecker_data
from .resolution import KroneckerNotApplicableError
from .stability import gamma, gamma_inv, min_slope

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


def _suite_intervals(depth: int) -> list[CheckResult]:
    slopes = enumerate_slopes(depth, 0, 3)
    ends = [s.interval() for s in slopes]
    failures = []
    total = 0
    for i, lo in enumerate(slopes):
        right = ends[i][1]
        for hi, (left, _) in zip(slopes[i + 1 :], ends[i + 1 :]):
            total += 1
            if surd_cmp(right, left) > 0:
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
        if ideal.astuple() != (1, 0, -n):
            assemble_failures.append("n=%d terms" % n)
        rd = res.dot_slope.rank
        pairing = euler_pairing(exceptional_character(res.dot_slope.dual_twist(0)), ideal)
        expected = res.m3 if res.case == CASE_BELOW_DOT else -res.m3
        if pairing != expected:
            m3_failures.append("n=%d m3 vs pairing" % n)
        if res.case == CASE_BELOW_DOT and not res.sporadic:
            if res.m3 * rd != 1 + res.w_char.r:
                rank_failures.append("n=%d rank identity" % n)
            ratio = Fraction(res.m1, res.m2)
            left = rd * res.dot_slope.interval_radius
            right = Fraction(rd, 3 * res.beta.rank * rd - res.alpha.rank)
            if not (left < ratio <= right):
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


def _suite_walls(depth: int) -> list[CheckResult]:
    collapse_failures = []
    for n in range(2, depth + 1):
        ms = min_slope(n)
        wall = collapsing_wall(ms)
        if (ms.lam + Fraction(3, 2)) ** 2 - 2 * n <= Fraction(5, 4):
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
    bound = Fraction(5, 4)
    # W(x, y) = W(y, x), and neighbouring triads and chains share walls
    built = {}

    def pair_wall(x, y):
        a, b = (x.address.p, x.address.q), (y.address.p, y.address.q)
        key = (a, b) if a <= b else (b, a)
        wall = built.get(key)
        if wall is None:
            wall = built[key] = exceptional_pair_wall(x, y)
        return wall

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
            pair_wall(alpha, epsilon(((p << j) + 1, q + j)))
            for j in range(CHAIN_LENGTH if chained else 2)
        ]
        right = pair_wall(beta, eta)
        for x, y, wall in ((alpha, beta, links[0]), (beta, eta, right)):
            if wall.radius_sq >= bound:
                radius_failures.append("pair (%s, %s)" % (x.value, y.value))
        r1 = (beta.discriminant - alpha.discriminant) / (alpha.value - beta.value)
        r2 = (eta.discriminant - beta.discriminant) / (beta.value - eta.value)
        if q == 1:
            ok = r1 == Fraction(-3, 4) and r2 == Fraction(3, 4)
        else:
            ok = r1 < -1 and r2 > 1
        if not ok:
            ratio_failures.append("triad p=%d q=%d" % (p, q))
        # beta.eta is the child of the adjacent addresses (p + 1, q) and (p + 2, q)
        left_ok = nested(links[0], links[1], alpha.value)
        right_ok = nested(
            right, pair_wall(eta, epsilon((2 * p + 3, q + 1))), eta.value
        )
        if not (left_ok and right_ok and 2 * beta.discriminant < 1):
            nest_failures.append("triad p=%d q=%d" % (p, q))
        if not chained:
            continue
        chain_total += 1
        radii = [w.radius_sq for w in links]
        if not all(r < s < bound for r, s in zip(radii, radii[1:])):
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


# name: (suite, default depth, least depth); the suites that check n = 2..depth
# would pass on no input below depth 2
_SUITES = {
    "cf": (_suite_cf, 10, 1),
    "intervals": (_suite_intervals, 8, 1),
    "gamma": (_suite_gamma, 1000, 1),
    "resolution": (_suite_resolution, 500, 2),
    "kronecker": (_suite_kronecker, 500, 2),
    "walls": (_suite_walls, 500, 2),
}
DEFAULT_DEPTHS = {name: default for name, (_, default, _) in _SUITES.items()}


def run_suite(suite: str, depth: int | None = None) -> list[CheckResult]:
    """Run one named suite, or all of them, at the given (or default) depth."""
    if depth is not None and depth < 1:
        raise ValueError("depth must be at least 1, got %d" % depth)
    if suite == "all":
        out = []
        for name in _SUITES:
            out.extend(run_suite(name, depth))
        return out
    if suite not in _SUITES:
        raise ValueError("unknown suite %r" % suite)
    check, default, least = _SUITES[suite]
    depth = default if depth is None else depth
    if depth < least:
        message = "%s checks n = %d..depth, so depth must be at least %d"
        raise ValueError(message % (suite, least, least))
    return check(depth)


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
