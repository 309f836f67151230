"""One integer places mu against D: s = chi(E_D) - n r_D = chi(E_D (x) I_Z).

min_slope computes s, decides the case by its sign alone, with one
cross-check that lambda <= D exactly when s > 0, and carries it as its field
s.  The resolution of n reads that field: it names the position of mu against
D, and its terms, the collapsing wall's destabilizer and the Kronecker rank
of V follow the sign, never the position string.  The rule and what the sign
fixes are checked through the public results; an AST scan keeps the position
strings out of the comparisons in resolution, bridgeland and verify; and a
lambda on the wrong side of D must raise.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import planecone.resolution as resolution
import planecone.stability as stability
from planecone.bridgeland import collapsing_wall, wall_between
from planecone.chern import ChernCharacter, euler_pairing, exceptional_character
from planecone.resolution import (
    CASE_ABOVE_DOT,
    CASE_AT_DOT,
    CASE_BELOW_DOT,
    KroneckerNotApplicableError,
    gaeta_resolution,
    kronecker_data,
)
from planecone.stability import min_slope

import counting

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "planecone"

_RNG = random.Random(18)
SEEDED = [_RNG.randrange(10**5, 10**9) for _ in range(300)] + [
    _RNG.randrange(10**9, 10**15) for _ in range(100)
]


@pytest.mark.parametrize("ns", [range(2, 3001), SEEDED], ids=["2..3000", "seeded"])
def test_the_sign_of_s_fixes_the_case_and_the_terms(ns):
    positions = set()
    for n in ns:
        ms = min_slope(n)
        dot = ms.associated
        s = dot.euler - n * dot.rank
        assert ms.s == s, n
        position = CASE_BELOW_DOT if s > 0 else CASE_ABOVE_DOT if s < 0 else CASE_AT_DOT
        positions.add(position)
        # mu = D when s = 0, where lambda > D, and mu = lambda at every other n
        assert ms.mu == (dot.value if s == 0 else ms.lam), n
        assert (ms.mu != ms.lam) == (s == 0), n
        # the one record of the resolution carries min_slope's lambda and s
        res = gaeta_resolution(n)
        assert resolution._core_of(n) is res, n
        assert (res.case, res.lam, res.mu) == (position, ms.lam, ms.mu), n
        assert (res.s, res.m3) == (s, abs(s)), n
        assert res.sporadic == (s > 0 and s * dot.rank <= 2), n
        # the third term is (D's dual twist by 0 or -3, s), absent at s = 0
        if s:
            assert res.terms[2] == (dot.dual_twist(0 if s > 0 else -3), s), n
        else:
            assert len(res.terms) == 2, n
        # the collapsing wall is destabilized by the resolution's last term
        iz = ChernCharacter(1, 0, -n)
        last = exceptional_character(res.terms[-1][0])
        assert collapsing_wall(n) == wall_between(iz, last), n
        # chi(E_{-D}, I_Z) = chi(E_D (x) I_Z) = s, the value verify checks res.s against
        assert euler_pairing(exceptional_character(dot.dual_twist(0)), iz) == s, n
        try:
            kd = kronecker_data(n)
        except KroneckerNotApplicableError:
            continue
        assert kd.rank_v == dot.value.numerator + (3 * dot.rank if s <= 0 else 0), n
    if isinstance(ns, range):
        assert positions == {CASE_BELOW_DOT, CASE_AT_DOT, CASE_ABOVE_DOT}


POSITION_NAMES = {"CASE_BELOW_DOT", "CASE_AT_DOT", "CASE_ABOVE_DOT"}
POSITION_STRINGS = {CASE_BELOW_DOT, CASE_AT_DOT, CASE_ABOVE_DOT}


def position_comparisons(source: str) -> list[int]:
    """Lines of each comparison or match pattern that reads a position name or string."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Compare, ast.MatchValue)):
            continue
        for part in ast.walk(node):
            if isinstance(part, ast.Name):
                name = part.id
            elif isinstance(part, ast.Attribute):
                name = part.attr
            elif isinstance(part, ast.Constant):
                name = part.value
            else:
                continue
            if name in POSITION_NAMES or name in POSITION_STRINGS:
                found.append(node.lineno)
                break
    return sorted(found)


def test_the_scan_sees_each_spelling_of_a_position_comparison():
    source = (
        "from .resolution import CASE_AT_DOT, CASE_BELOW_DOT\n"
        "def f(ms, res):\n"
        "    if res.case == CASE_AT_DOT:\n"
        "        return 1\n"
        "    at_dot = CASE_BELOW_DOT != res.case\n"
        "    below = res.case in (resolution.CASE_ABOVE_DOT,)\n"
        "    match res.case:\n"
        "        case resolution.CASE_BELOW_DOT:\n"
        "            return 2\n"
        "    return res.case == 'AboveDot' or ms.case == 'TwoSLeq'\n"
        "CASE = CASE_AT_DOT\n"
    )
    assert position_comparisons(source) == [3, 5, 6, 8, 10]


@pytest.mark.parametrize("module", ["resolution", "bridgeland", "verify"])
def test_no_position_string_is_compared(module):
    source = (PACKAGE / (module + ".py")).read_text(encoding="utf-8")
    lines = position_comparisons(source)
    assert not lines, "%s.py compares a position at lines %s; read the sign of s" % (module, lines)


# one n of each position, and a TriangularMinusOne n, where lambda = D and s = 1
SIGN_NS = {"BelowDot": 25, "AtDot": 3, "AboveDot": 11, "TriangularMinusOne": 2}


@pytest.mark.parametrize("n", SIGN_NS.values(), ids=SIGN_NS.keys())
def test_a_lambda_on_the_wrong_side_of_d_raises(monkeypatch, n):
    true_gamma_inv = stability._gamma_inv

    def wrong_side(q):
        lam, a = true_gamma_inv(q)
        s = a.euler - n * a.rank
        # lambda <= D exactly when s > 0; put it on the other side
        return a.value + (Fraction(1, 7) if s > 0 else Fraction(-1, 7)), a

    monkeypatch.setattr(stability, "_gamma_inv", wrong_side)
    # on an empty core memo every answer by n walks through the patched _gamma_inv
    counting.empty_core_memo(monkeypatch.setattr)
    message = "^n=%d: s = -?\\d+ puts lambda \\S+ on the wrong side of D$" % n
    for fn in (min_slope, gaeta_resolution, collapsing_wall, kronecker_data):
        with pytest.raises(ArithmeticError, match=message):
            fn(n)
