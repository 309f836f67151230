"""Acceptance gate: every headline guarantee of the package, one test each.

Each test prints as its own pass/fail line under pytest -v.  Exact arithmetic
is used throughout; the only tolerances are the stated time budgets and the
Decimal precision floor of the comparison oracle in the final test.
"""

import csv
import itertools
import os
import random
import time
from decimal import Decimal, getcontext
from fractions import Fraction

from planecone.bridgeland import (
    collapsing_wall,
    exceptional_pair_wall,
    kernel_cokernel_slopes,
    nested,
)
from planecone.chern import ChernCharacter
from planecone.contfrac import check_exceptional_cf
from planecone.exactnum import QuadSurd, fraction_str, surd_cmp
from planecone.exceptional import dot, enumerate_slopes, epsilon
from planecone.resolution import (
    CASE_ABOVE_DOT,
    CASE_AT_DOT,
    CASE_BELOW_DOT,
    KroneckerNotApplicableError,
    classical_gaeta,
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
    # decided by exact comparison of the quadratic endpoints
    slopes = enumerate_slopes(8, Fraction(0), Fraction(3))
    assert len(slopes) == 769
    for lo, hi in itertools.combinations(slopes, 2):
        right_end = lo.value + lo.interval_radius
        left_end = hi.value - hi.interval_radius
        assert surd_cmp(right_end, left_end) <= 0, (lo.value, hi.value)


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
                assert surd_cmp(rd * res.dot_slope.interval_radius, ratio) < 0
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
            # x_alpha is a root of x^2 - 3x + 1/r^2, so 1/x = r^2 (3 - x)
            x, r = alpha.interval_radius, alpha.rank
            inverse = r * r * (3 - x)
            assert x * inverse == 1
            ratio = (Fraction(1, 2) - alpha.discriminant) * inverse
            # (x/2)^2 - P(-x) + ratio^2, with P(-x) = (x^2 - 3x + 2)/2
            limit = x * x * Fraction(1, 4) - (x * x - 3 * x + 2) * Fraction(1, 2) + ratio * ratio
            assert limit == Fraction(5, 4)

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


def test_criterion_12_surd_comparison_oracle():
    # ten thousand randomized exact comparisons checked against a 220-digit
    # Decimal evaluation; disagreement is only tolerated within 1e-180, where
    # the exact result must report equality
    getcontext().prec = 220

    def evaluate(x):
        if isinstance(x, QuadSurd):
            a = Decimal(x.a.numerator) / Decimal(x.a.denominator)
            b = Decimal(x.b.numerator) / Decimal(x.b.denominator)
            return a + b * Decimal(x.d).sqrt()
        f = Fraction(x)
        return Decimal(f.numerator) / Decimal(f.denominator)

    pool = []
    for slope in enumerate_slopes(6, Fraction(0), Fraction(2)):
        pool.append(slope.interval_radius)
        pool.append(slope.value - slope.interval_radius)
        pool.append(slope.value + slope.interval_radius)
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

    threshold = Decimal("1e-180")
    for _ in range(10_000):
        x, y = rng.choice(pool), rng.choice(pool)
        got = surd_cmp(x, y)
        diff = evaluate(x) - evaluate(y)
        if abs(diff) > threshold:
            assert got == (1 if diff > 0 else -1), (x, y)
        else:
            assert got == 0, (x, y)
