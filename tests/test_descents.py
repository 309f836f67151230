"""Tree descents per answer: each slope is looked up once and then carried.

associated_slope is the only tree walk; the resolution and the walls take
every twist and dual of alpha, beta and D from their addresses, so their
one descent is min_slope's: gamma_inv's lookup, whose round-trip check
reads delta from the slope it found.  The verify suites name every slope
they build by its dyadic address.
"""

import sys

import pytest

import planecone.exceptional as exceptional
from planecone.bridgeland import collapsing_wall
from planecone.resolution import KroneckerNotApplicableError, gaeta_resolution, kronecker_data
from planecone.stability import min_slope
from planecone.verify import run_suite


def count_calls(monkeypatch, name):
    """Wrap planecone's function `name` wherever a package module binds it."""
    original = getattr(exceptional, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "planecone" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "fn", [min_slope, gaeta_resolution, collapsing_wall, kronecker_data],
    ids=lambda fn: fn.__name__,
)
def test_at_most_two_descents_and_no_lookup_by_value(monkeypatch, fn):
    descents = count_calls(monkeypatch, "associated_slope")
    lookups = count_calls(monkeypatch, "exceptional_slope_of")
    for n in range(2, 201):
        descents.clear()
        try:
            fn(n)
        except KroneckerNotApplicableError:
            pass
        assert len(descents) <= 1, (n, descents)
        assert lookups == [], (n, lookups)


DEPTH = 12


@pytest.mark.parametrize(
    "suite, depth, bound",
    [
        ("cf", 6, 0),
        ("intervals", 4, 0),
        ("gamma", DEPTH, 2 * DEPTH),  # gamma_inv's one and gamma's one per n
        ("resolution", DEPTH, DEPTH - 1),
        ("kronecker", DEPTH, DEPTH - 1),
        ("walls", DEPTH, 2 * (DEPTH - 1)),  # collapsing_wall's one and gamma_inv's one per n
    ],
)
def test_verify_suites_name_slopes_by_address(monkeypatch, suite, depth, bound):
    descents = count_calls(monkeypatch, "associated_slope")
    lookups = count_calls(monkeypatch, "exceptional_slope_of")
    assert all(r.passed for r in run_suite(suite, depth))
    assert lookups == []
    assert len(descents) <= bound, len(descents)
