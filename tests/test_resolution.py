"""Generalized and classical point resolutions, and the Kronecker reduction."""

from fractions import Fraction

import pytest

import planecone.resolution as resolution
from planecone.bridgeland import collapsing_wall
from planecone.chern import ChernCharacter, euler_pairing, exceptional_character, twist
from planecone.exactnum import QuadSurd
from planecone.resolution import (
    CASE_ABOVE_DOT,
    CASE_AT_DOT,
    CASE_BELOW_DOT,
    CASE_TWO_S_GEQ,
    CASE_TWO_S_LEQ,
    classical_gaeta,
    gaeta_resolution,
    kronecker_data,
    kronecker_euler,
    KroneckerNotApplicableError,
)
from planecone.stability import (
    CASE_TRIANGULAR_MINUS_ONE,
    _delta,
    min_slope,
)

import counting
from decimal_oracle import oracle_cmp

IDEAL = {n: ChernCharacter(1, 0, -n) for n in range(2, 60)}


def test_below_dot_anchor_n25():
    res = gaeta_resolution(25)
    assert res.case == CASE_BELOW_DOT
    assert not res.sporadic
    assert res.mu == Fraction(17, 3)
    assert (res.alpha.value, res.beta.value) == (5, 7)
    assert res.dot_slope.value == 6
    assert (res.m1, res.m2, res.m3) == (4, 10, 3)
    assert res.k == 2
    assert res.w_char.astuple() == (2, -18, 79)
    labels = [t.label for t in res.w_sequence]
    assert labels == ["W", "E(-8)^4", "E(-7)^2"]
    labels = [t.label for t in res.iz_sequence]
    assert labels == ["W", "E(-6)^3", "I_Z"]
    assert res.ideal_character() == IDEAL[25]


def test_above_dot_anchor_n11():
    res = gaeta_resolution(11)
    assert res.case == CASE_ABOVE_DOT
    assert res.mu == Fraction(10, 3)
    assert (res.alpha.value, res.beta.value) == (2, 4)
    assert res.dot_slope.value == 3
    assert (res.m1, res.m2, res.m3) == (4, 10, 1)
    assert res.k == 2
    assert res.w_char.astuple() == (2, -6, 7)
    labels = [t.label for t in res.w_sequence]
    assert labels == ["E(-5)^2", "E(-4)^4", "W"]
    labels = [t.label for t in res.iz_sequence]
    assert labels == ["E(-6)^1", "W", "I_Z"]
    assert res.ideal_character() == IDEAL[11]


def test_at_dot_anchor_n10():
    res = gaeta_resolution(10)
    assert res.case == CASE_AT_DOT
    assert res.mu == 3 and res.dot_slope.value == 3
    assert (res.m1, res.m2, res.m3) == (5, 11, 0)
    assert res.k == 4
    assert res.w_sequence == ()
    assert res.w_char.astuple() == (1, 0, -10)
    labels = [t.label for t in res.iz_sequence]
    assert labels == ["E(-5)^4", "E(-4)^5", "I_Z"]
    assert res.ideal_character() == IDEAL[10]


def test_at_dot_half_integer_anchor_n4():
    res = gaeta_resolution(4)
    assert res.case == CASE_AT_DOT
    assert res.dot_slope.value == Fraction(3, 2)
    assert (res.alpha.value, res.beta.value) == (1, 2)
    assert (res.m1, res.m2, res.m3) == (2, 11, 0)
    assert res.k == 1
    labels = [t.label for t in res.iz_sequence]
    assert labels == ["E(-4)^1", "E(-2)^2", "I_Z"]
    assert res.ideal_character() == IDEAL[4]


def test_triangular_minus_one_anchor_n2():
    res = gaeta_resolution(2)
    assert res.case == CASE_BELOW_DOT
    assert res.sporadic
    assert min_slope(2).case == CASE_TRIANGULAR_MINUS_ONE
    assert res.dot_slope.value == 1
    assert (res.m1, res.m2, res.m3) == (1, 2, 1)
    assert res.k == 1
    assert res.w_char.astuple() == (0, -1, Fraction(5, 2))
    assert res.ideal_character() == IDEAL[2]


def test_sporadic_below_anchor_n8():
    res = gaeta_resolution(8)
    assert res.case == CASE_BELOW_DOT
    assert res.sporadic
    assert res.mu == Fraction(8, 3)
    assert res.dot_slope.value == 3
    assert (res.m1, res.m2, res.m3) == (2, 5, 2)
    assert res.k == 1
    assert res.w_char.astuple() == (1, -6, 17)
    assert res.ideal_character() == IDEAL[8]


def test_sporadic_classification_up_to_50():
    tmo = set()
    other = set()
    for n in range(2, 51):
        res = gaeta_resolution(n)
        if not res.sporadic:
            continue
        if min_slope(n).case == CASE_TRIANGULAR_MINUS_ONE:
            tmo.add(n)
        else:
            other.add(n)
    assert tmo == {2, 5, 9, 14, 20, 27, 35, 44}
    assert other == {8, 13, 17, 19, 26, 31, 34, 43, 49}


def test_multiplicities_always_positive():
    for n in range(2, 160):
        res = gaeta_resolution(n)
        assert res.m1 > 0 and res.m2 > 0 and res.k > 0
        if res.case == CASE_AT_DOT:
            assert res.m3 == 0
        else:
            assert res.m3 > 0
        assert res.ideal_character() == ChernCharacter(1, 0, -n)


def test_euler_pairing_determines_m3():
    for n in range(2, 100):
        res = gaeta_resolution(n)
        pairing = euler_pairing(
            exceptional_character(-res.dot_slope.value), res.ideal_character()
        )
        if res.case == CASE_BELOW_DOT:
            assert pairing == res.m3
        else:
            assert pairing == -res.m3


def test_rank_identity_and_slope_bounds_below_dot():
    for n in range(2, 160):
        res = gaeta_resolution(n)
        if res.case != CASE_BELOW_DOT or res.sporadic:
            continue
        rd = res.dot_slope.rank
        assert res.m3 * rd == 1 + res.w_char.r
        ratio = Fraction(res.m1, res.m2)
        # rd x_D = (3 rd - sqrt(9 rd^2 - 4))/2
        rd_x = QuadSurd(Fraction(3 * rd, 2), Fraction(-1, 2), 9 * rd * rd - 4)
        assert oracle_cmp(rd_x, ratio) < 0
        assert ratio <= Fraction(rd, 3 * res.beta.rank * rd - res.alpha.rank)


def test_gaeta_resolution_input_validation():
    with pytest.raises(ValueError):
        gaeta_resolution(1)
    with pytest.raises(ValueError):
        gaeta_resolution(0)


@pytest.mark.parametrize("n", [-1, 0, 1], ids=str)
def test_n_below_two_gets_one_message(n):
    # the n < 2 guard runs before min_slope, whose own message for n <= 0 differs
    for fn, what in [
        (gaeta_resolution, "resolution"),
        (kronecker_data, "resolution"),
        (collapsing_wall, "collapsing wall"),
    ]:
        with pytest.raises(ValueError, match="^the %s is computed for n >= 2$" % what):
            fn(n)


def test_the_resolutions_up_to_300_meet_every_case():
    seen = set()
    for n in range(2, 301):
        res = gaeta_resolution(n)
        seen.add((res.case, res.sporadic))
    # every position of mu against D, and the sporadic case
    assert seen == {
        (CASE_BELOW_DOT, False),
        (CASE_BELOW_DOT, True),
        (CASE_AT_DOT, False),
        (CASE_ABOVE_DOT, False),
    }


# one n of each case of min_slope and of each position of mu against D
CASE_NS = {
    "TriangularMinusOne": 2,
    "ExceptionalBundle": 3,
    "sporadic": 8,
    "AboveDot": 11,
    "BelowDot": 25,
}


@pytest.mark.parametrize("n", CASE_NS.values(), ids=CASE_NS.keys())
def test_a_term_that_does_not_assemble_to_i_z_raises_by_both_paths(monkeypatch, n):
    # both answers read the one resolution record of n, whose builder runs the check
    faulty = gaeta_resolution(n).terms[0][0]
    true_character = resolution.exceptional_character

    def character(slope):
        ch = true_character(slope)
        return twist(ch, 1) if slope == faulty else ch

    monkeypatch.setattr(resolution, "exceptional_character", character)
    # the resolution of n memoized above holds the true characters, so n is built again
    counting.empty_core_memo(monkeypatch.setattr)
    message = "^resolution terms for n=%d do not assemble to I_Z$" % n
    for fn in (gaeta_resolution, kronecker_data):
        with pytest.raises(ArithmeticError, match=message):
            fn(n)


def test_classical_gaeta_examples():
    cg = classical_gaeta(10)
    assert (cg.r, cg.s) == (4, 0)
    assert cg.case == CASE_TWO_S_LEQ
    cg = classical_gaeta(8)
    assert (cg.r, cg.s) == (3, 2)
    assert cg.case == CASE_TWO_S_GEQ
    assert dict(cg.sub_terms) == {-5: 2}
    assert dict(cg.quot_terms) == {-3: 2, -4: 1}
    cg = classical_gaeta(1)
    assert (cg.r, cg.s) == (1, 0)
    assert cg.character() == ChernCharacter(1, 0, -1)


def test_classical_character_identity():
    for n in range(1, 200):
        cg = classical_gaeta(n)
        assert 0 <= cg.s <= cg.r
        assert cg.character() == ChernCharacter(1, 0, -n)


def test_integer_dot_recovers_classical():
    for n in range(2, 200):
        res = gaeta_resolution(n)
        if res.dot_slope.rank != 1:
            continue
        cg = classical_gaeta(n)
        assert res.complex_terms() == cg.complex_terms(), n


def test_kronecker_anchor_n25():
    kd = kronecker_data(25)
    assert kd.N == 3
    assert (kd.a, kd.b) == (4, 2)
    assert kd.rank_v == 6
    assert kd.kr_dim == 5
    assert kd.slope_in_window
    assert kd.hilb_dim_excess


def test_kronecker_anchor_n11():
    kd = kronecker_data(11)
    assert kd.N == 3
    assert (kd.a, kd.b) == (4, 2)
    assert kd.rank_v == 6
    assert kd.kr_dim == 5
    assert kd.slope_in_window


def test_kronecker_euler_form():
    # chi((b,a),(b',a')) = bb' + aa' - N b a' for the N-arrow quiver
    assert kronecker_euler(3, (2, 4), (2, 4)) == 4 + 16 - 24
    assert kronecker_euler(3, (1, 0), (0, 1)) == -3
    assert kronecker_euler(3, (0, 1), (1, 0)) == 0


@pytest.mark.parametrize(
    "args",
    [
        (True, (1, 1), (1, 1)),
        (3, (True, 1), (1, 1)),
        (3, (1, 1), (1, False)),
        (3.0, (1, 1), (1, 1)),
    ],
    ids=repr,
)
def test_kronecker_euler_reads_ints_and_not_bools(args):
    # once kronecker_euler(True, (1, 1), (1, 1)) gave 1 and (3, (True, 1), (1, 1)) gave -1
    with pytest.raises(TypeError, match="must be an int, not"):
        kronecker_euler(*args)


def test_kronecker_dimension_is_the_moduli_dimension_of_w():
    # reference: the moduli of W has dimension rank_v^2 (2 delta(mu) - 1) + 1,
    # which must equal the Kronecker moduli dimension 1 - chi((b, a), (b, a))
    applicable = 0
    for n in range(2, 1001):
        res = gaeta_resolution(n)
        try:
            kd = kronecker_data(n)
        except KroneckerNotApplicableError:
            continue
        applicable += 1
        reference = kd.rank_v * kd.rank_v * (2 * _delta(res.mu, res.dot_slope) - 1) + 1
        assert kd.kr_dim == reference, n
        assert type(kd.kr_dim) is int, n
        # reference: the window's ends (N -+ sqrt(N^2 - 4))/2 as surds; the
        # window test is chi((b, a), (b, a)) < 0
        N = kd.N
        psi_lower = QuadSurd(Fraction(N, 2), Fraction(-1, 2), N * N - 4)
        psi_upper = QuadSurd(Fraction(N, 2), Fraction(1, 2), N * N - 4)
        ratio = Fraction(kd.b, kd.a)
        inside = oracle_cmp(psi_lower, ratio) < 0 < oracle_cmp(psi_upper, ratio)
        assert kd.slope_in_window == inside, n
    assert applicable == 803


def test_kronecker_not_applicable():
    with pytest.raises(KroneckerNotApplicableError):
        kronecker_data(10)  # exceptional mu: handled birationally
    with pytest.raises(KroneckerNotApplicableError):
        kronecker_data(4)
    with pytest.raises(KroneckerNotApplicableError):
        kronecker_data(8)  # sporadic


def test_kronecker_window_and_dimension_bound():
    count = 0
    for n in range(2, 160):
        try:
            kd = kronecker_data(n)
        except KroneckerNotApplicableError:
            continue
        count += 1
        assert kd.slope_in_window, n
        assert kd.kr_dim < 2 * n, n
        assert kd.hilb_dim_excess
    assert count > 60


def test_resolution_to_json_shape():
    js = gaeta_resolution(25).to_json()
    assert js["n"] == 25
    assert js["case"] == CASE_BELOW_DOT
    assert js["mu"] == "17/3"
    assert (js["m1"], js["m2"], js["m3"]) == (4, 10, 3)
    assert js["w_char"] == {"r": "2", "c1": "-18", "ch2": "79"}
    assert [t["label"] for t in js["iz_sequence"]] == ["W", "E(-6)^3", "I_Z"]
