"""Golden outputs: one sha256 per section of the command line and library output.

Each digest was recorded from the code before the slope-tree walk was shared
by epsilon, associated_slope and gamma_inv, so a refactor of the exact core
that changes any printed answer fails here.  The sections cover the cone
table, the resolutions, walls and Kronecker reductions for n <= 300, the
exceptional slopes of depth <= 6 in [-2, 2), and the six verify suites at
the depths the benchmark runs them.  The large_n section, seeded cone rows
of 3 to 15 digits and resolutions and walls of 3 to 5 digits, was recorded
from the code before stability and chern moved from Fraction arithmetic to
integer formulas.  The deep section, associated slopes and delta just above
the twists and duals of (3 - sqrt 5)/2, was recorded from the code before
associated_slope and epsilon walked only the unit tree [0, 1] and reached
every other slope by a twist.  Every digest held, unedited, when gamma_inv
moved onto the unit tree too, so that no walk goes down a twisted tree.
"""

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

import pytest

from planecone.bridgeland import exceptional_pair_wall
from planecone.cli import main
from planecone.exceptional import CantorPointError, associated_slope
from planecone.resolution import collapsing_wall, gaeta_resolution, kronecker_data
from planecone.stability import delta, min_slope
from planecone.verify import format_report, run_suite


def cli(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return "%d\n%s%s" % (code, out.getvalue(), err.getvalue())


def table():
    yield cli(["table", "2", "1000", "--format", "json"])


def resolutions():
    for n in range(2, 301):
        yield cli(["resolution", "--n", str(n), "--json"])


def walls():
    for n in range(2, 301):
        yield cli(["walls", "--n", str(n), "--json"])


def kronecker():
    for n in range(1, 301):
        try:
            yield json.dumps(kronecker_data(n).to_json(), sort_keys=True)
        except (ValueError, ArithmeticError) as exc:
            yield "%s: %s" % (type(exc).__name__, exc)


def slopes():
    for q in range(1, 7):
        for p in range(-2 << q, 2 << q):
            yield cli(["epsilon", "--p", str(p), "--q", str(q), "--json"])


def suites():
    depths = {"cf": 9, "intervals": 4, "gamma": 250, "resolution": 150,
              "kronecker": 150, "walls": 50}
    for suite, depth in depths.items():
        yield format_report(run_suite(suite, depth))[0]


def seeded_n(seed, digits):
    """200 seeded n, each with a seeded number of digits in the given range."""
    rng = random.Random(seed)
    for _ in range(200):
        k = rng.randint(*digits)
        yield rng.randrange(10 ** (k - 1), 10 ** k)


def large_n():
    """The sizes the benchmark drives: cone rows up to 15 digits, walls up to 5."""
    for n in seeded_n(13, (3, 15)):
        yield json.dumps(min_slope(n).to_json(), sort_keys=True)
    for n in seeded_n(14, (3, 5)):
        res = gaeta_resolution(n)
        out = [res.to_json(), collapsing_wall(n).to_json()]
        try:
            out.append(kronecker_data(n).to_json())
        except ValueError as exc:
            out.append("%s: %s" % (type(exc).__name__, exc))
        out.append(exceptional_pair_wall(res.alpha, res.beta).to_json())
        yield json.dumps(out, sort_keys=True)


def deep():
    """The first e-digit decimal above x0 + k and its negative, for x0 = (3 - sqrt 5)/2.

    The descent depth grows with e and does not depend on k or the sign; from
    e = 54 on it passes the depth cap, and the section holds the error text.
    """
    for e in range(5, 61):
        n = 10**e
        for k in (0, 1, -1, 7, -7, 10**6, -10**6, 10**15, -10**15):
            # sqrt(5 n^2) lies strictly between its isqrt s and s + 1
            above = Fraction(((3 + 2 * k) * n - math.isqrt(5 * n * n) - 1) // 2 + 1, n)
            for x in (above, -above):
                try:
                    a = associated_slope(x)
                    yield "%s -> %s at (%d, %d) rank %d euler %d delta %s" % (
                        x, a.value, a.address.p, a.address.q, a.rank, a.euler, delta(x))
                except CantorPointError as exc:
                    yield "%s: %s" % (x, exc)


GOLDEN = {
    table: "3fb7a1f3bc05c55e262470b975b0260d73e48ec02e3e185d94037f78be4f420b",
    resolutions: "eb98bf482680ae9ec3a9d9f73604b0a449e0ee5c8cace91c47dd5ecd59858653",
    walls: "84bb7bebb09829c324825ccc4710c93a599b7b258c1641f62525f2da7bd31196",
    kronecker: "d5956335695df3bc186aa5252a5f32f94a2b20cad185a488328a3d2f2ab0e069",
    slopes: "aa3f397599a39789e9494e672587174b417b420e872f52efb6a84f7450ee776c",
    suites: "5427fb08bbae27e92e83d0e1e5a54806002a8375d277c1c87d23be038b956ad4",
    large_n: "232f3db1f267580d2d69da39c4f5ba4ee07e928ff43f1dcd3d9f3c6cf72b3f94",
    deep: "9cc84b681f3aebd9af792384594e96543d4d0d5c41193af7eb9ba0980f8444e6",
}


@pytest.mark.parametrize("section", list(GOLDEN), ids=lambda fn: fn.__name__)
def test_output_matches_its_recorded_digest(section):
    digest = hashlib.sha256()
    for chunk in section():
        digest.update(chunk.encode("utf-8") + b"\0")
    assert digest.hexdigest() == GOLDEN[section]
