"""Tree descents per answer: each slope is looked up once and then carried.

associated_slope is the only tree walk; the resolution and the walls take
every twist and dual of alpha, beta and D from their addresses, so their
descents are the two of min_slope (gamma_inv's lookup and its self-check).
"""

import sys

import pytest

import planecone.exceptional as exceptional
from planecone.bridgeland import collapsing_wall
from planecone.resolution import KroneckerNotApplicableError, gaeta_resolution, kronecker_data
from planecone.stability import min_slope


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
        assert len(descents) <= 2, (n, descents)
        assert lookups == [], (n, lookups)
