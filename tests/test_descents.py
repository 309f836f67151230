"""Walks down the slope tree per answer: each slope is looked up once and carried.

exceptional._walk is the only loop that goes down the tree; epsilon,
associated_slope and gamma_inv each steer one.  The resolution and the walls
take every twist and dual of alpha, beta and D from their addresses, so on a
warm memo their one walk is min_slope's: gamma_inv's, whose round-trip check
reads delta from the slope it found.  The resolution, the collapsing wall
and the Kronecker data take n and read one memoized resolution, so
together they cost one walk and one build, and a repeat costs neither; a test
that counts the work of one answer on a repeated n reads an empty memo
(counting.empty_core_memo).  gamma_inv steers by rationals and
kronecker_data reads its window off an integer Euler form, so no warm answer
builds a surd.
The verify suites name every slope they build by its dyadic address, as a
pair of ints that epsilon reads from the memo without building a
DyadicAddress, and the walls suite decides its walls in integers, so a warm
round of it builds no Fraction.  Each
count is taken on a warm memo, because an epsilon that misses the memo walks
too.  The surd count of a walk steered by a rational is also taken cold: it
decides every level in integers and builds no slope's radius.  gamma_inv's
walk steers by integer pairs and the Chern characters are integer forms, so
the Fractions an answer builds do not grow with the depth of its walk or the
size of n, and a twist, dual or parent read from the memo builds no address.
Every walk goes down the unit tree and twists where it stops, so a new twist
of a slope the unit tree already holds builds that one slope, and min_slope
leaves no slope outside the unit tree but its answers.
A new twist is built from its slope's integers, so it builds one Fraction,
its value, and shares its slope's discriminant.
gamma_inv's round trip is one integer identity, so its answer is the one
Fraction it builds.  gaeta_resolution, kronecker_data and the collapsing wall
read one record of the resolution of n, built once: its builder reads each
bundle term's character once and checks the assembly to I_Z in integers, so
a resolution built on warm slopes builds at most 9 characters besides
min_slope(n), and a repeated answer returns the same record and builds no
character, sequence term or Fraction.  A walk
on an empty memo asks about every level and builds exactly the ancestors of
its landing; on a warm memo it gallops along each run of moves to one side,
so a landing 60 levels down asks about at most 20 slopes and builds none,
and no probe goes below max_depth.
"""

import random
from fractions import Fraction

import pytest

import planecone.exceptional as exceptional
import planecone.resolution as resolution
from planecone.bridgeland import exceptional_pair_wall
from planecone.chern import exceptional_character
from planecone.cli import main
from planecone.resolution import (
    KroneckerNotApplicableError,
    collapsing_wall,
    gaeta_resolution,
    kronecker_data,
)
from planecone.stability import _gamma_inv, min_slope
from planecone.verify import run_suite

import counting
from sequential_walk import first_decimal_above_golden, gamma_at


def answer(fn, n):
    try:
        return fn(n)
    except KroneckerNotApplicableError:
        return None


ANSWERS = [min_slope, gaeta_resolution, collapsing_wall, kronecker_data]


@pytest.mark.parametrize("fn", ANSWERS, ids=lambda fn: fn.__name__)
def test_at_most_two_descents_and_no_lookup_by_value(monkeypatch, fn):
    # the repeat reads an empty core memo, so it still does one whole answer's walk
    cores = counting.empty_core_memo(monkeypatch.setattr)
    walks = counting.walks(monkeypatch.setattr)
    lookups = counting.lookups(monkeypatch.setattr)
    for n in range(2, 201):
        answer(fn, n)
        walks.clear()
        cores.cache_clear()
        answer(fn, n)
        assert len(walks) <= 1, (n, walks)
        assert lookups == [], (n, lookups)


def test_walls_command_with_svg_walks_once(monkeypatch, tmp_path, capsys):
    # once two walks: the printed wall and the SVG each called collapsing_wall(n)
    argv = ["walls", "--n", "25", "--svg", str(tmp_path / "walls.svg")]
    cores = counting.empty_core_memo(monkeypatch.setattr)
    assert main(argv) == 0
    cores.cache_clear()
    walks = counting.walks(monkeypatch.setattr)
    assert main(argv) == 0
    assert len(walks) == 1, walks
    capsys.readouterr()


def by_n(n):
    """Resolution, collapsing wall and Kronecker data, each called with the bare n."""
    gaeta_resolution(n)
    collapsing_wall(n)
    answer(kronecker_data, n)


def term_characters(ns):
    """The character each term slope of each resolution of n in ns keeps."""
    return [t._character for n in ns for t, _ in gaeta_resolution(n).terms]


def test_the_three_answers_by_n_share_one_walk_and_one_core(monkeypatch):
    # once three walks, two cores and 5 to 7 exceptional_character builds per n:
    # each answer called min_slope(n), gaeta_resolution and kronecker_data each
    # ran the core, and collapsing_wall built its destabilizer's character again
    ns = range(2, 201)
    for n in ns:
        by_n(n)
    characters = term_characters(ns)
    assert None not in characters
    counting.empty_core_memo(monkeypatch.setattr)
    walks = counting.walks(monkeypatch.setattr)
    cores = counting.cores(monkeypatch.setattr)
    for n in ns:
        by_n(n)
        assert (len(walks), cores) == (1, [n]), (n, walks, cores)
        walks.clear()
        cores.clear()
        by_n(n)
        assert (walks, cores) == ([], []), (n, walks, cores)
    # the memo holds every core of the sweep, and each term slope's character
    # was built once, by the first pass
    for n in ns:
        by_n(n)
    assert (walks, cores) == ([], [])
    assert all(a is b for a, b in zip(term_characters(ns), characters, strict=True))


def test_a_warm_walls_suite_reads_the_cores_the_resolution_suite_left(monkeypatch):
    # once 49 walks and 49 cores: the suite passed min_slope(n) to collapsing_wall,
    # which built its core again outside the memo; the first round warms the
    # slopes of the pair walls, which a cold epsilon walks to
    run_suite("walls", 50)
    counting.empty_core_memo(monkeypatch.setattr)
    run_suite("resolution", 150)
    walks = counting.walks(monkeypatch.setattr)
    cores = counting.cores(monkeypatch.setattr)
    assert all(r.passed for r in run_suite("walls", 50))
    assert (len(walks), len(cores)) == (0, 0), (walks, cores)


def test_the_core_memo_reads_n_before_its_key(monkeypatch):
    # lru_cache keys True as 1 and 2.0 as 2, so a memo read first would answer them
    cores = counting.empty_core_memo(monkeypatch.setattr)
    cores(1)
    cores(2)
    for fn, n in [(gaeta_resolution, True), (kronecker_data, True), (collapsing_wall, 2.0)]:
        with pytest.raises(TypeError, match="^n must be an int, not (bool|float)$"):
            fn(n)
    for fn in (gaeta_resolution, collapsing_wall, kronecker_data):
        with pytest.raises(ValueError, match="is computed for n >= 2$"):
            fn(1)
    assert cores.cache_info().currsize == 2


def test_a_slope_argument_is_not_looked_up_by_value(monkeypatch):
    lookups = counting.lookups(monkeypatch.setattr)
    alpha, beta = exceptional.epsilon((1, 2)), exceptional.epsilon((1, 1))
    exceptional.parent_pair(alpha)
    exceptional.is_adjacent_pair(alpha, beta)
    exceptional_character(alpha)
    exceptional_pair_wall(alpha, beta)
    assert lookups == []
    exceptional_pair_wall(alpha, Fraction(1, 2))
    assert lookups == [(Fraction(1, 2),)]


@pytest.mark.parametrize(
    "fn, bound",
    [(min_slope, 0), (gaeta_resolution, 0), (collapsing_wall, 0), (kronecker_data, 0)],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_warm_answers_build_no_surd(monkeypatch, fn, bound):
    """kronecker_data decides its window by the sign of an integer Euler form."""
    cores = counting.empty_core_memo(monkeypatch.setattr)
    built = counting.surds(monkeypatch.setattr)
    for n in range(2, 201):
        answer(fn, n)
        built.clear()
        cores.cache_clear()
        out = answer(fn, n)
        assert len(built) <= (bound if out is not None else 0), (n, built)


def test_warm_kronecker_suite_builds_no_surd(monkeypatch):
    # once two per applicable n, the ends of the window
    run_suite("kronecker", 40)
    built = counting.surds(monkeypatch.setattr)
    assert all(r.passed for r in run_suite("kronecker", 40))
    assert built == []


def test_cold_walks_steered_by_rationals_build_no_surd(monkeypatch):
    monkeypatch.setattr(exceptional, "_MEMO", {})
    built = counting.surds(monkeypatch.setattr)
    x = first_decimal_above_golden(40)
    a = exceptional.associated_slope(x)
    assert a.address.q > 40
    assert built == []
    for n in (2, 5, 1000, 10**15 + 7):
        min_slope(n)
    assert len(exceptional._MEMO) > a.address.q
    assert built == []
    # the radius is built on first use, once
    radius = a.interval_radius
    assert built == [radius] and a.interval_radius is radius


def test_a_new_twist_of_a_warm_unit_slope_builds_one_slope(monkeypatch):
    # a walk from floor(x) once built every ancestor again under each new
    # integer part, about q slopes for a landing depth q; and a new twist once
    # built its value by Fraction addition and a second discriminant Fraction
    monkeypatch.setattr(exceptional, "_MEMO", {})
    x = first_decimal_above_golden(40)
    a = exceptional.associated_slope(x)
    p, q = a.address.p, a.address.q
    assert q >= 40
    built = counting.slopes(monkeypatch.setattr)
    fractions = counting.fractions(monkeypatch.setattr)
    for k in (10**6 + 3, -(10**15) - 1):
        size = len(exceptional._MEMO)
        y = x + k
        fractions.clear()
        b = exceptional.associated_slope(y)
        assert built == [b] and len(exceptional._MEMO) == size + 1
        assert len(fractions) == 1, fractions
        assert b.address == exceptional.DyadicAddress(p + (k << q), q)
        assert b.value == a.value + k and b.rank == a.rank
        assert b.discriminant is a.discriminant
        built.clear()
        fractions.clear()
        c = exceptional.epsilon((p + ((k + 1) << q), q))
        assert len(fractions) == 1 and c.discriminant is a.discriminant, fractions
        assert built == [c] and c.value == a.value + k + 1
        built.clear()
        assert exceptional.associated_slope(y) is b and built == []


def test_min_slope_leaves_no_slope_outside_the_unit_tree_but_its_answers(monkeypatch):
    # gamma_inv once walked the tree between m and m + 1 and kept that twisted
    # path, about one ancestor per large n besides the answer
    monkeypatch.setattr(exceptional, "_MEMO", {})
    rng = random.Random(26)
    answers = set()
    for _ in range(300):
        a = min_slope(rng.randrange(10**3, 10 ** rng.randrange(4, 16))).associated
        answers.add((a.address.p, a.address.q))
    twisted = {(p, q) for p, q in exceptional._MEMO if not 0 <= p <= 1 << q}
    assert twisted and twisted <= answers, sorted(twisted - answers)[:5]


def test_a_cantor_point_error_at_a_twist_names_its_integers():
    x = first_decimal_above_golden(54)
    for k in (0, 7, -(10**15)):
        for y, lo in ((x + k, k), (-x - k, -k - 1)):
            message = "^no slope between %d and %d within depth 64$" % (lo, lo + 1)
            with pytest.raises(exceptional.CantorPointError, match=message):
                exceptional.associated_slope(y, max_depth=64)


def ancestors(p, q):
    """The memo keys of the slope at p/2^q and of every slope its product needs."""
    out, todo = set(), [(p, q)]
    while todo:
        p, q = todo.pop()
        while q and not p & 1:
            p, q = p >> 1, q - 1
        if (p, q) not in out:
            out.add((p, q))
            if q:
                todo += [(p >> 1, q - 1), ((p >> 1) + 1, q - 1)]
    return out


@pytest.mark.parametrize("e", [5, 20, 40, 53])
def test_a_cold_walk_asks_every_level_and_builds_the_ancestors(monkeypatch, e):
    # a cold memo holds no slope of the run below the level reached, so no probe is made
    x = first_decimal_above_golden(e)
    landing = exceptional.associated_slope(x)
    target, address = gamma_at(landing), landing.address
    for ask in (
        lambda: exceptional.associated_slope(x),
        lambda: _gamma_inv(target)[1],
        lambda: exceptional.epsilon(address),
    ):
        with monkeypatch.context() as m:
            m.setattr(exceptional, "_MEMO", {})
            asked = counting.asked(m.setattr)
            a = ask()
            assert a.address == address
            assert len(asked) == address.q + 2 and asked[-1] is a
            assert set(exceptional._MEMO) == ancestors(address.p, address.q)


@pytest.mark.parametrize("k", [0, 7, -(10**15)])
def test_a_warm_walk_to_level_60_asks_at_most_20_slopes(monkeypatch, k):
    # once one per level, 62 to 66 for these landings
    deep = [first_decimal_above_golden(e) for e in range(50, 54)]
    inputs = [y for x in deep for y in (x + k, -x - k)]
    for y in inputs:
        exceptional.associated_slope(y)
    built = counting.slopes(monkeypatch.setattr)
    asked = counting.asked(monkeypatch.setattr)
    for y in inputs:
        asked.clear()
        a = exceptional.associated_slope(y)
        assert a.address.q >= 60
        assert len(asked) <= 20, (y, a.address.q, len(asked))
    assert built == []


def test_a_walk_capped_at_depth_40_asks_nothing_below_it(monkeypatch):
    # the memo holds slopes of level 64 on the run, and the gallop stops at the cap
    x = first_decimal_above_golden(53)
    assert exceptional.associated_slope(x).address.q == 64
    asked = counting.asked(monkeypatch.setattr)
    for k in (0, 7):
        for y, lo in ((x + k, k), (-x - k, -k - 1)):
            asked.clear()
            with pytest.raises(exceptional.CantorPointError) as raised:
                exceptional.associated_slope(y, max_depth=40)
            assert str(raised.value) == "no slope between %d and %d within depth 40" % (lo, lo + 1)
            assert asked and max(s.address.q for s in asked) <= 40


DEPTH = 12


@pytest.mark.parametrize(
    "suite, depth, bound",
    [
        ("cf", 6, 0),
        ("intervals", 4, 0),
        ("gamma", DEPTH, 2 * DEPTH),  # gamma_inv's one and gamma's one per n
        ("resolution", DEPTH, DEPTH - 1),
        ("kronecker", DEPTH, DEPTH - 1),
        ("walls", DEPTH, DEPTH - 1),
    ],
)
def test_verify_suites_name_slopes_by_address(monkeypatch, suite, depth, bound):
    run_suite(suite, depth)
    walks = counting.walks(monkeypatch.setattr)
    lookups = counting.lookups(monkeypatch.setattr)
    assert all(r.passed for r in run_suite(suite, depth))
    assert lookups == []
    assert len(walks) <= bound, len(walks)


def test_a_gamma_inv_walk_builds_as_many_fractions_at_any_depth(monkeypatch):
    # once about ten per level: 61 Fractions for a walk of depth 2 and 491 for depth 45
    shallow, deep = gamma_at(exceptional.epsilon((1, 2))), gamma_at(exceptional.epsilon((1, 45)))
    qs = [shallow, deep, deep + Fraction(1, 10**40), Fraction(10**29 + 3), Fraction(123457, 1000)]
    depths = [_gamma_inv(q)[1].address.q for q in qs]
    assert depths[0] <= 3 and depths[1] >= 40 and depths[2] >= 40
    built = counting.fractions(monkeypatch.setattr)
    counts = []
    for q in qs:
        built.clear()
        _gamma_inv(q)
        counts.append(len(built))
    # the answer alone: the round trip is an integer identity, once 4 Fractions
    assert counts == [1] * len(qs), list(zip(depths, counts))


def warm_resolutions(monkeypatch):
    """n < 60 and 40 seeded n up to 10^15, each resolution built once.

    From then on resolution reads min_slope(n) from the results held here,
    and each resolution is built again on an empty memo, so a count taken on
    one of these n is the resolution's own work, besides min_slope's.
    """
    rng = random.Random(23)
    ns = list(range(2, 60)) + [rng.randrange(10**4, 10**5) for _ in range(30)]
    ns += [rng.randrange(10**10, 10**15) for _ in range(10)]
    held = {n: min_slope(n) for n in ns}
    for n in ns:
        gaeta_resolution(n)
    counting.cores(monkeypatch.setattr, call=held.__getitem__)
    counting.empty_core_memo(monkeypatch.setattr)
    return ns


def test_a_warm_resolution_builds_no_fraction_for_any_n(monkeypatch):
    # once 49, 67 or 69 per n, from Fraction multiplicities and characters
    ns = warm_resolutions(monkeypatch)
    built = counting.fractions(monkeypatch.setattr)
    counts = {}
    for n in ns:
        built.clear()
        gaeta_resolution(n)
        counts.setdefault(len(built), []).append(n)
    assert list(counts) == [0], counts


def test_a_warm_resolution_builds_each_bundle_character_once(monkeypatch):
    # once 18 per n: the assembly check built every bundle character again
    ns = warm_resolutions(monkeypatch)
    built = counting.characters(monkeypatch.setattr)
    for n in ns:
        built.clear()
        gaeta_resolution(n)
        assert len(built) <= 9, (n, built)


def test_kronecker_data_builds_the_one_resolution_that_gaeta_resolution_returns(monkeypatch):
    # once two records of one resolution: the core that kronecker_data read, and
    # a ResolutionData that every gaeta_resolution call built from it again, with
    # 4.8 SeqTerms and 5.4 characters per repeated call on n = 2..200
    ns = warm_resolutions(monkeypatch)
    characters = counting.characters(monkeypatch.setattr)
    terms = counting.seq_terms(monkeypatch.setattr)
    fractions = counting.fractions(monkeypatch.setattr)
    for n in ns:
        characters.clear()
        answer(kronecker_data, n)
        assert len(characters) <= 9, (n, characters)
        characters.clear()
        terms.clear()
        fractions.clear()
        res = gaeta_resolution(n)
        assert (characters, terms, fractions) == ([], [], []), (n, characters, terms, fractions)
        assert res is resolution._core_of(n) and gaeta_resolution(n) is res, n
        answer(kronecker_data, n)
        assert (characters, terms) == ([], []), (n, characters, terms)


def test_warm_twists_duals_and_parents_build_no_address(monkeypatch):
    # once every dual_twist and parent_pair built a DyadicAddress for its memo read
    ns = range(2, 201)
    for n in ns:
        gaeta_resolution(n)
        collapsing_wall(n)
    # each resolution is built again below, from the warm slopes
    counting.empty_core_memo(monkeypatch.setattr)
    built = counting.addresses(monkeypatch.setattr)
    for n in ns:
        res = gaeta_resolution(n)
        collapsing_wall(n)
        exceptional_pair_wall(res.alpha, res.beta)
    assert built == []


def test_a_warm_epsilon_on_an_int_pair_builds_no_address(monkeypatch):
    # once every epsilon((p, q)) built a DyadicAddress before it read the memo
    pairs = [(1, 2), (2, 3), (4, 4), (-3, 1), (12, 2), (5, 0), (40, 3), (7, 10)]
    slopes = [exceptional.epsilon(exceptional.DyadicAddress(*pq)) for pq in pairs]
    built = counting.addresses(monkeypatch.setattr)
    assert all(exceptional.epsilon(pq) is s for pq, s in zip(pairs, slopes))
    assert built == []
    # any other argument is read by DyadicAddress, on a warm memo too
    assert exceptional.epsilon(Fraction(1, 4)) is slopes[0] and len(built) == 1
    for bad, error in (((True, 0), TypeError), ((2.0, 0), TypeError), ((1, -1), ValueError)):
        with pytest.raises(error):
            exceptional.epsilon(bad)


@pytest.mark.parametrize("suite, depth", [("cf", 9), ("intervals", 5), ("walls", 50)])
def test_warm_slope_suites_build_no_address(monkeypatch, suite, depth):
    # once 513, 97 and 2,097: each epsilon((p, q)) built a DyadicAddress to read the memo
    run_suite(suite, depth)
    built = counting.addresses(monkeypatch.setattr)
    assert all(r.passed for r in run_suite(suite, depth))
    assert built == []


def test_a_warm_walls_suite_builds_no_fraction(monkeypatch):
    # once 6,152: nesting subtracted and squared Fractions, and every bound was a
    # Fraction expression; then 2,079, 2 per distinct pair wall, each wall's center
    # and radius^2, rebuilt each round; then 189, once each wall was kept, on its
    # slope or on the resolution record of its n, all built by kernel_cokernel_slopes;
    # now its product check and its pairings are integer forms too
    run_suite("walls", 50)
    built = counting.fractions(monkeypatch.setattr)
    assert all(r.passed for r in run_suite("walls", 50))
    assert built == []
