"""The four benchmark workloads: seeded input streams, answers and oracles.

Each workload turns a seed into an endless, deterministic stream of inputs,
computes one answer per input through planecone's public functions, renders
it as canonical text (used to compare traced and untraced runs byte for byte)
and checks it against an oracle that runs outside the timed region and does
not reuse the timed call path where an independent check is cheap.
"""

from __future__ import annotations

import csv
import json
import random
import re
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from itertools import count
from pathlib import Path


def _half_disc(r: int) -> Fraction:
    """Discriminant (1 - 1/r^2)/2 of an exceptional bundle of rank r."""
    return Fraction(r * r - 1, 2 * r * r)


def _hilbert(x: Fraction) -> Fraction:
    return (x * x + 3 * x + 2) / 2


def _character(s: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Chern character (r, r*s, r*(s^2/2 - Delta_s)) of the exceptional bundle E_s."""
    r = s.denominator
    return (Fraction(r), r * s, r * (s * s / 2 - _half_disc(r)))


def _is_exceptional(v: Fraction) -> bool:
    """The numerator congruence c^2 + 1 = 0 mod r that every exceptional slope c/r meets."""
    return (v.numerator ** 2 + 1) % v.denominator == 0


def _gap_to_interval(x: Fraction, alpha: Fraction, prec: int) -> Decimal:
    """Distance from x to the nearer end of I_alpha in prec-digit decimals, > 0 inside.

    The ends alpha -+ (3/2 - sqrt(9r^2 - 4)/(2r)), r the rank of alpha, are
    evaluated here rather than through the package's surd arithmetic.
    """
    r = alpha.denominator
    with localcontext() as ctx:
        ctx.prec = prec
        radius = Decimal(3) / 2 - Decimal(9 * r * r - 4).sqrt() / (2 * r)
        offset = Decimal(x.numerator) / x.denominator - Decimal(alpha.numerator) / r
        return radius - abs(offset)


def _fs(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else "%d/%d" % (x.numerator, x.denominator)


class Workload:
    """Interface shared by the workloads.

    ``round_size`` inputs make one round; a timed run only stops on a round
    boundary, and latency is measured per round.  Throughput is taken per
    window of ``window`` rounds.  ``trace_answers`` inputs make the fixed
    prefix of a traced run.
    ``known_errors`` are exception types counted as failed answers rather
    than as a broken benchmark.
    A workload with known errors sets ``answers_per_second``: its timed run
    then answers a fixed number of inputs instead of stopping at a deadline,
    so that every run attempts, and fails, the same number of answers.
    """

    name = ""
    round_size = 1
    window = 1
    trace_answers = 0
    answers_per_second: int | None = None
    known_errors: tuple[type[BaseException], ...] = ()

    def __init__(self, pc, seed: int, root: Path):
        self.pc = pc
        self.seed = seed
        self.root = root

    def inputs(self):
        raise NotImplementedError

    def answer(self, inp):
        raise NotImplementedError

    def render(self, inp, out) -> str:
        """Canonical text of an answer that returned."""
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        """None when a returned answer is right, else a description of the fault."""
        raise NotImplementedError

    def credit(self, out) -> tuple[int, int]:
        """(answers attempted, answers failed) that one call accounts for."""
        return 1, 0

    def span_name(self, inp) -> str:
        return "bench.answer"

    def run_length(self, seconds: float) -> int | None:
        """Inputs a timed run of ``seconds`` answers, or None to run until the deadline."""
        if self.answers_per_second is None:
            return None
        windows = max(1, round(seconds * self.answers_per_second / self.window))
        return windows * self.window


class ConeTable(Workload):
    """`planecone table` rows: n = 2, 3, 4, ... with one row in four a seeded large n."""

    name = "cone_table"
    window = 400
    trace_answers = 2000
    size = "n = 2, 3, ... contiguous; every 4th row a seeded n with 3 to 15 digits"

    def inputs(self):
        rng = random.Random(self.seed)
        small = count(2)
        for i in count():
            if i % 4 == 3:
                digits = rng.randint(3, 15)
                yield rng.randrange(10 ** (digits - 1), 10 ** digits)
            else:
                yield next(small)

    def answer(self, n):
        ms = self.pc.min_slope(n)
        fs = self.pc.fraction_str
        return "%d,%s,%s" % (n, fs(ms.associated.value), fs(ms.mu))

    def render(self, n, row) -> str:
        return row

    @cached_property
    def published(self) -> dict[int, str]:
        """Rows of the paper's table, n <= 171, keyed by n."""
        path = self.root / "tests" / "data" / "effective_cone_table.csv"
        with open(path, newline="") as fh:
            return {
                int(r["n"]): "%s,%s,%s" % (r["n"], r["alpha"], r["mu"])
                for r in csv.DictReader(fh)
            }

    def check(self, n, row) -> str | None:
        table = self.published
        if n in table and table[n] != row:
            return "row %r differs from the published table %r" % (row, table[n])
        n_text, alpha_text, mu_text = row.split(",")
        alpha, mu = Fraction(alpha_text), Fraction(mu_text)
        if int(n_text) != n:
            return "row %r is for the wrong n" % row
        if not _is_exceptional(alpha):
            return "alpha %s is not an exceptional slope" % alpha_text
        if mu != alpha and not _gap_to_interval(mu, alpha, 100) > Decimal(10) ** -80:
            return "row %r: mu is not inside I_alpha" % row
        chi_per_rank = _hilbert(alpha) - _half_disc(alpha.denominator)
        # mu is lambda = gamma^-1(n) unless it drops to alpha, which happens
        # exactly when alpha < lambda and chi(E_alpha)/r_alpha >= n
        gamma_mu = self.pc.gamma(mu)
        if gamma_mu == n:
            if alpha < mu and chi_per_rank >= n:
                return "row %r: mu should have dropped to alpha" % row
        elif mu != alpha:
            return "row %r: gamma(mu) = %s, not n" % (row, _fs(gamma_mu))
        elif not (gamma_mu < n and chi_per_rank >= n):
            return "row %r: alpha does not qualify as the minimal slope" % row
        return None


class ResolutionWalls(Workload):
    """Per seeded n: Gaeta resolution, collapsing wall, Kronecker data, parent-pair wall."""

    name = "resolution_walls"
    window = 100
    trace_answers = 400
    size = "one seeded n per answer, 1 to 5 digits (n >= 2)"

    def inputs(self):
        rng = random.Random(self.seed)
        while True:
            digits = rng.randint(1, 5)
            yield rng.randrange(max(2, 10 ** (digits - 1)), 10 ** digits)

    def answer(self, n):
        pc = self.pc
        res = pc.gaeta_resolution(n)
        wall = pc.collapsing_wall(n)
        try:
            kd = pc.kronecker_data(n)
        except pc.KroneckerNotApplicableError:
            kd = None
        pair = pc.exceptional_pair_wall(res.alpha, res.beta)
        return res, wall, kd, pair

    def render(self, n, out) -> str:
        res, wall, kd, pair = out
        return json.dumps(
            [res.to_json(), wall.to_json(), kd.to_json() if kd else None, pair.to_json()],
            separators=(",", ":"),
        )

    def check(self, n, out) -> str | None:
        res, wall, kd, pair = out
        total = [Fraction(0)] * 3
        for terms, sign in ((res.positive_terms, 1), (res.negative_terms, -1)):
            for s, m in terms:
                total = [t + sign * m * c for t, c in zip(total, _character(Fraction(s)))]
        if total != [1, 0, -n]:
            return "n=%d: resolution terms assemble to %s" % (n, total)
        center = -(res.mu + Fraction(3, 2))
        if wall.center_s != center or wall.radius_sq != center * center - 2 * n:
            return "n=%d: collapsing wall %s, expected center %s" % (n, wall.to_json(), center)
        dot = res.dot_slope
        if kd is None:
            if not (res.mu == dot.value or res.sporadic):
                return "n=%d: kronecker_data refused an applicable n" % n
        else:
            x = Fraction(kd.b, kd.a)
            if kd.N != 3 * dot.rank or (kd.a, kd.b) != (res.m1, res.k):
                return "n=%d: kronecker dimension vector disagrees with the resolution" % n
            if not x * x - kd.N * x + 1 < 0:
                return "n=%d: kronecker ratio %s outside the window" % (n, x)
        a, b = res.alpha.value, res.beta.value
        expected = (a + b) / 2 + (
            _half_disc(b.denominator) - _half_disc(a.denominator)
        ) / (a - b)
        if pair.center_s != expected:
            return "n=%d: pair wall center %s, expected %s" % (n, pair.center_s, expected)
        return None


_GOLDEN_DIGITS = 250
_EXPONENTS = range(5, 61)


class DeepDescent(Workload):
    """associated_slope or delta on rationals just above twists and duals of (3-sqrt5)/2.

    x0 = (3-sqrt5)/2 is the right end of I_0, so rationals just above x0 + k
    need a descent whose depth grows with the precision; a dual input is the
    negative of such a rational, which approaches -x0 - k from below.  Answers
    alternate between associated_slope and delta, and the twist k is drawn
    from a wide range, so almost every descent builds slopes new to the memo.
    Exponents 5..60 are stratified: every block of 56 answers uses each
    precision 10^-e exactly once, in seeded order.  The input for precision e
    is the first e-digit decimal above x0 + k (or its negative), so the
    descent depth depends on e alone, not on the twist or the sign.  Inputs
    that need a descent deeper than the depth cap raise CantorPointError (a
    known defect of the package: with the cap at 64, e = 54..60, 7 answers
    per block); they stay in the stream and count as failed answers.  A
    timed run answers whole blocks, answers_per_second per second of
    --seconds, so every run and every seed fails the same share and count.
    """

    name = "deep_descent"
    window = len(_EXPONENTS)
    trace_answers = 10 * len(_EXPONENTS)
    # about the package's present rate at reference speed (run.PROBE_REF),
    # so a run of --seconds 20 (27 blocks, 1512 answers) lasts about 20 s
    answers_per_second = 75
    size = "distance 10^-5..10^-60 (each once per 56 answers), twist k in [-10^6, 10^6], whole blocks"

    def __init__(self, pc, seed, root):
        super().__init__(pc, seed, root)
        self.known_errors = (pc.CantorPointError,)

    def inputs(self):
        rng = random.Random(self.seed)
        with localcontext() as ctx:
            ctx.prec = _GOLDEN_DIGITS
            x0 = (3 - Decimal(5).sqrt()) / 2
        i = 0
        while True:
            block = list(_EXPONENTS)
            rng.shuffle(block)
            for e in block:
                k = rng.randint(-10 ** 6, 10 ** 6)
                sign = rng.choice((1, -1))
                with localcontext() as ctx:
                    ctx.prec = _GOLDEN_DIGITS
                    floor = int((x0 + k).scaleb(e).to_integral_value(rounding=ROUND_FLOOR))
                fn = "associated_slope" if i % 2 == 0 else "delta"
                yield fn, sign * Fraction(floor + 1, 10 ** e)
                i += 1

    def answer(self, inp):
        fn, x = inp
        return getattr(self.pc, fn)(x)

    def render(self, inp, out) -> str:
        fn, x = inp
        if fn == "delta":
            return "delta %s -> %s" % (_fs(x), _fs(out))
        return "associated_slope %s -> %s at (%d, %d)" % (
            _fs(x), _fs(out.value), out.address.p, out.address.q)

    def check(self, inp, out) -> str | None:
        fn, x = inp
        alpha = out if fn == "associated_slope" else self.pc.associated_slope(x)
        if not _is_exceptional(alpha.value) or alpha.rank != alpha.value.denominator:
            return "%s is not an exceptional slope" % _fs(alpha.value)
        gap = _gap_to_interval(x, alpha.value, 220)
        if gap <= 0:
            return "%s lies outside I_%s" % (_fs(x), _fs(alpha.value))
        if gap < Decimal(10) ** -200:
            return "%s is too close to an end of I_%s to decide" % (_fs(x), _fs(alpha.value))
        if fn == "delta":
            expected = _hilbert(-abs(x - alpha.value)) - _half_disc(alpha.rank)
            if out != expected:
                return "delta(%s) = %s, expected %s" % (_fs(x), _fs(out), _fs(expected))
        return None


# One round of all six suites takes about 3 s on a 2-core machine, so a
# 20 s run has six or more rounds to take medians over.  The intervals suite
# runs at depth 5 (4656 pair comparisons) rather than the CLI default of 8,
# which alone takes about 43 s.
SUITE_DEPTHS = {
    "cf": 9,
    "intervals": 5,
    "gamma": 250,
    "resolution": 150,
    "kronecker": 150,
    "walls": 50,
}
SUITES = tuple(SUITE_DEPTHS)
_PASSED = re.compile(r"(\d+) checks")
_FAILED = re.compile(r"(\d+)/(\d+) failed")


class VerifySuites(Workload):
    """Every self-check suite once per round, the order of each round seeded.

    An answer is one check, counted from the suites' own totals; latency is
    per round, the time of one `planecone verify all` at these depths.
    """

    name = "verify_suites"
    round_size = len(SUITES)
    # windows of two rounds, so that a window's p99 is its slower round
    window = 2
    trace_answers = len(SUITES)
    depths = SUITE_DEPTHS
    size = "rounds of run_suite at depths " + ", ".join(
        "%s=%d" % kv for kv in SUITE_DEPTHS.items())

    def inputs(self):
        rng = random.Random(self.seed)
        while True:
            order = list(SUITES)
            rng.shuffle(order)
            yield from order

    def answer(self, suite):
        return self.pc.run_suite(suite, self.depths[suite])

    def render(self, suite, results) -> str:
        return self.pc.format_report(results)[0]

    def credit(self, results) -> tuple[int, int]:
        attempted = failed = 0
        for res in results:
            m = _PASSED.fullmatch(res.detail)
            if m:
                attempted += int(m.group(1))
                continue
            m = _FAILED.match(res.detail)
            if m is None:
                raise ValueError("unreadable check detail %r" % res.detail)
            failed += int(m.group(1))
            attempted += int(m.group(2))
        return attempted, failed

    def check(self, suite, results) -> str | None:
        bad = [r for r in results if not r.passed]
        if bad:
            return "verify %s: %s" % (suite, "; ".join("%s (%s)" % (r.name, r.detail) for r in bad))
        return None

    def span_name(self, suite) -> str:
        return "verify." + suite


WORKLOADS = {w.name: w for w in (ConeTable, ResolutionWalls, DeepDescent, VerifySuites)}
