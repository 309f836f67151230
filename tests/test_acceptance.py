"""Acceptance gate: every headline guarantee of the package, one test each.

Each test prints as its own pass/fail line under pytest -v.  Exact arithmetic
is used throughout; the only tolerances are the stated time budgets and the
Decimal precision floor of the interval-end oracle in the final test.
"""

import csv
import itertools
import os
import random
import time
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

from planecone.bridgeland import exceptional_pair_wall, kernel_cokernel_slopes, nested
from planecone.chern import ChernCharacter
from planecone.contfrac import check_exceptional_cf
from planecone.exactnum import QuadSurd, fraction_str
from planecone.exceptional import dot, enumerate_slopes, epsilon
from planecone.resolution import (
    CASE_ABOVE_DOT,
    CASE_AT_DOT,
    CASE_BELOW_DOT,
    KroneckerNotApplicableError,
    classical_gaeta,
    collapsing_wall,
    gaeta_resolution,
    kronecker_data,
)
from planecone.stability import (
    CASE_TRIANGULAR_MINUS_ONE,
    delta,
    gamma,
    gamma_inv,
    min_slope,
)
from planecone.verify import _ends_apart

from decimal_oracle import DIGITS, decimal_of, times

DATA = os.path.join(os.path.dirname(__file__), "data", "effective_cone_table.csv")


def test_criterion_01_table():
    # the full table of extremal slopes for 2 <= n <= 171, inside 2 seconds
    start = time.perf_counter()
    with open(DATA) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 170
    for row in rows:
        n = int(row["n"])
        ms = min_slope(n)
        assert fraction_str(ms.associated.value) == row["alpha"], n
        assert fraction_str(ms.mu) == row["mu"], n
    assert time.perf_counter() - start < 2.0


def test_criterion_02_dyadic_slope_values():
    expected = {
        (0, 0): Fraction(0),
        (1, 3): Fraction(5, 13),
        (1, 2): Fraction(2, 5),
        (3, 3): Fraction(12, 29),
        (1, 1): Fraction(1, 2),
        (5, 3): Fraction(17, 29),
        (3, 2): Fraction(3, 5),
        (7, 3): Fraction(8, 13),
        (1, 0): Fraction(1),
    }
    for addr, value in expected.items():
        assert epsilon(addr).value == value


def test_criterion_03_continued_fraction_flags():
    # all structure flags hold for every slope of depth <= 10 in [0, 1]
    start = time.perf_counter()
    slopes = enumerate_slopes(10, Fraction(0), Fraction(1))
    assert len(slopes) == 1025
    for slope in slopes:
        report = check_exceptional_cf(slope)
        assert all(report.values()), (slope.value, report)
    assert time.perf_counter() - start < 5.0


def test_criterion_04_numerator_congruence():
    for slope in enumerate_slopes(10, Fraction(0), Fraction(1)):
        num = slope.value.numerator
        assert (num * num + 1) % slope.rank == 0, slope.value


def test_criterion_05_interval_disjointness():
    # every pair of intervals from depth <= 8 slopes in [0, 3] is disjoint,
    # decided exactly in integers on the two slopes' numerators and ranks
    slopes = enumerate_slopes(8, Fraction(0), Fraction(3))
    assert len(slopes) == 769
    for lo, hi in itertools.combinations(slopes, 2):
        assert _ends_apart(lo.value.numerator, lo.rank, hi.value.numerator, hi.rank), (
            lo.value, hi.value)


def test_criterion_06_gamma_inverts_exactly():
    start = time.perf_counter()
    previous = None
    for n in range(1, 1001):
        mu = gamma_inv(Fraction(n))
        assert gamma(mu) == n
        if previous is not None:
            assert previous < mu
        previous = mu
    assert time.perf_counter() - start < 5.0


def test_criterion_07_resolution_soundness():
    seen = {"below": 0, "below_sporadic": 0, "tmo": 0, "at": 0, "above": 0}
    for n in range(2, 501):
        res = gaeta_resolution(n)
        assert res.ideal_character() == ChernCharacter(1, 0, -n), n
        assert res.m1 > 0 and res.m2 > 0 and res.k > 0, n
        if res.case == CASE_AT_DOT:
            assert res.m3 == 0
            seen["at"] += 1
        elif res.case == CASE_ABOVE_DOT:
            assert res.m3 > 0
            seen["above"] += 1
        else:
            assert res.case == CASE_BELOW_DOT and res.m3 > 0
            if min_slope(n).case == CASE_TRIANGULAR_MINUS_ONE:
                assert res.sporadic and res.m3 * res.dot_slope.rank == 1
                seen["tmo"] += 1
            elif res.sporadic:
                seen["below_sporadic"] += 1
            else:
                seen["below"] += 1
                rd = res.dot_slope.rank
                assert res.m3 * rd == 1 + res.w_char.r
                ratio = Fraction(res.m1, res.m2)
                # rd x_D < m1/m2: 3 rd m2 - 2 m1 < m2 sqrt(9 rd^2 - 4), one signed square
                t = 3 * rd * res.m2 - 2 * res.m1
                assert t <= 0 or t * t < res.m2 * res.m2 * (9 * rd * rd - 4)
                assert ratio <= Fraction(rd, 3 * res.beta.rank * rd - res.alpha.rank)
    assert all(count > 0 for count in seen.values()), seen

    r25 = gaeta_resolution(25)
    assert (r25.m1, r25.m2, r25.m3, r25.k) == (4, 10, 3, 2)
    assert r25.w_char.astuple() == (2, -18, 79)
    r11 = gaeta_resolution(11)
    assert (r11.m1, r11.m2, r11.m3, r11.k) == (4, 10, 1, 2)
    assert r11.w_char.astuple() == (2, -6, 7)
    r10 = gaeta_resolution(10)
    assert (r10.m1, r10.m2, r10.m3, r10.k) == (5, 11, 0, 4)
    assert [t.label for t in r10.iz_sequence] == ["E(-5)^4", "E(-4)^5", "I_Z"]


def test_criterion_08_integer_slope_recovers_classical():
    matched = 0
    for n in range(2, 501):
        res = gaeta_resolution(n)
        if res.dot_slope.rank != 1:
            continue
        matched += 1
        assert res.complex_terms() == classical_gaeta(n).complex_terms(), n
    assert matched >= 100


def test_criterion_09_collapsing_walls():
    for n in range(2, 501):
        lam = gamma_inv(Fraction(n))
        radius_sq = (lam + Fraction(3, 2)) ** 2 - 2 * n
        assert radius_sq == 2 * delta(lam) + Fraction(1, 4), n
        assert radius_sq > Fraction(5, 4), n
    w2 = collapsing_wall(2)
    assert (w2.center_s, w2.radius_sq) == (Fraction(-5, 2), Fraction(9, 4))
    w25 = collapsing_wall(25)
    assert (w25.center_s, w25.radius_sq) == (Fraction(-43, 6), Fraction(49, 36))


def test_criterion_10_pair_wall_geometry():
    # triads at every even numerator up to depth 8: bounded radii and exact
    # center ratio estimates, plus strictly growing nested chains
    for q in range(1, 9):
        for p in range(0, 2**q, 2):
            alpha = epsilon((p, q))
            beta = epsilon((p + 1, q))
            eta = epsilon((p + 2, q))
            for anchor, other in ((alpha, beta), (eta, beta)):
                w = exceptional_pair_wall(anchor.value, other.value)
                assert w.radius_sq < Fraction(5, 4), (p, q)
            r1 = (beta.discriminant - alpha.discriminant) / (alpha.value - beta.value)
            r2 = (eta.discriminant - beta.discriminant) / (beta.value - eta.value)
            if q == 1:
                assert r1 == Fraction(-3, 4) and r2 == Fraction(3, 4)
            else:
                assert r1 < -1 and r2 > 1

    for q in range(1, 7):
        for p in range(0, 2**q, 2):
            alpha = epsilon((p, q))
            current = epsilon((p + 1, q)).value
            walls = []
            for _ in range(6):
                walls.append(exceptional_pair_wall(alpha.value, current))
                current = dot(alpha.value, current)
            radii = [w.radius_sq for w in walls]
            assert all(a < b for a, b in zip(radii, radii[1:])), (p, q)
            assert radii[-1] < Fraction(5, 4)
            for inner, outer in zip(walls, walls[1:]):
                assert nested(inner, outer, alpha.value)
            # x_alpha = 3/2 - sqrt(d)/(2r) as its coefficient pair (a, b) of
            # a + b sqrt(d), d = 9r^2 - 4
            r = alpha.rank
            d = 9 * r * r - 4
            x = (Fraction(3, 2), Fraction(-1, 2 * r))
            assert alpha.interval_radius == QuadSurd(*x, d)
            # x_alpha is a root of x^2 - 3x + 1/r^2, so 1/x = r^2 (3 - x)
            inverse = (r * r * (3 - x[0]), -r * r * x[1])
            assert times(x, inverse, d) == (1, 0)
            ratio = tuple((Fraction(1, 2) - alpha.discriminant) * c for c in inverse)
            # (x/2)^2 - P(-x) + ratio^2, with P(-x) = (x^2 - 3x + 2)/2
            xx, rr = times(x, x, d), times(ratio, ratio, d)
            limit = (
                xx[0] / 4 - (xx[0] - 3 * x[0] + 2) / 2 + rr[0],
                xx[1] / 4 - (xx[1] - 3 * x[1]) / 2 + rr[1],
            )
            assert limit == (Fraction(5, 4), 0)

    # the kernel/cokernel slope balances close up exactly
    for q in range(1, 7):
        for p in range(0, 2**q, 2):
            triad = kernel_cokernel_slopes(p, q)
            assert triad.balance_first and triad.balance_second, (p, q)


def test_criterion_11_kronecker_reduction():
    applicable = 0
    for n in range(2, 501):
        try:
            kd = kronecker_data(n)
        except KroneckerNotApplicableError:
            continue
        applicable += 1
        assert kd.slope_in_window, n
        assert kd.kr_dim < 2 * n, n
        assert kd.hilb_dim_excess, n
    assert applicable >= 300


def test_criterion_12_interval_end_oracle():
    # ten thousand randomized exact decisions at interval ends checked against a
    # 220-digit Decimal evaluation: the integer disjointness test of a slope
    # pair, side(x) of a rational, and equality of surds.  Disagreement is only
    # tolerated within 1e-180, where the exact result must report a tie.  The
    # digits are set in a local context, so no later test computes at 220
    prec = getcontext().prec
    with localcontext() as ctx:
        ctx.prec = DIGITS
        interval_end_decisions()
    assert getcontext().prec == prec


def interval_end_decisions():
    slopes = enumerate_slopes(6, Fraction(0), Fraction(2))
    pool = []
    for slope in slopes:
        pool.append(slope.interval_radius)
        pool.extend(slope.interval())
    rng = random.Random(170)
    for _ in range(120):
        den = rng.randint(1, 40)
        num = rng.randint(0, 300)
        pool.append(
            QuadSurd(Fraction(-3, 2), Fraction(1, 2 * den), (5 * den + 8 * num) * den)
        )
    for big_n in range(3, 61, 3):
        pool.append(QuadSurd(Fraction(big_n, 2), Fraction(1, 2), big_n**2 - 4))
        pool.append(QuadSurd(Fraction(big_n, 2), Fraction(-1, 2), big_n**2 - 4))
    pool.extend(Fraction(rng.randint(-40, 40), rng.randint(1, 23)) for _ in range(60))
    values = [decimal_of(x) for x in pool]
    ends = [tuple(decimal_of(end) for end in slope.interval()) for slope in slopes]

    threshold = Decimal("1e-180")
    for _ in range(10_000):
        # the right end of I_alpha against the left end of I_beta, alpha <= beta
        i, j = sorted((rng.randrange(len(slopes)), rng.randrange(len(slopes))))
        lo, hi = slopes[i], slopes[j]
        got = _ends_apart(lo.value.numerator, lo.rank, hi.value.numerator, hi.rank)
        gap = ends[j][0] - ends[i][1]
        if abs(gap) > threshold:
            assert got == (gap > 0), (lo.value, hi.value)
        else:
            assert got, (lo.value, hi.value)

        # a rational near alpha against both ends of I_alpha, which it never meets;
        # x_alpha is about 1/(3 r^2)
        k = rng.randrange(len(slopes))
        r = slopes[k].rank
        x = slopes[k].value + Fraction(rng.randint(-30, 30), rng.randint(1, 30) * r * r)
        below, above = decimal_of(x) - ends[k][0], decimal_of(x) - ends[k][1]
        assert abs(below) > threshold and abs(above) > threshold, (slopes[k].value, x)
        expect = -1 if below < 0 else (1 if above > 0 else 0)
        assert slopes[k].side(x) == expect, (slopes[k].value, x)

        # equality of two surds, or of a surd and a rational
        a, b = rng.randrange(len(pool)), rng.randrange(len(pool))
        diff = values[a] - values[b]
        if abs(diff) > threshold:
            assert pool[a] != pool[b], (pool[a], pool[b])
        else:
            assert pool[a] == pool[b] and hash(pool[a]) == hash(pool[b]), (pool[a], pool[b])
