"""Every public name earns a caller: a fixed set of runs reaches it, or KEPT says why it stays.

The runs are in-process, on empty slope and resolution memos: `planecone
verify` for each suite at the tiny depths of bench/test_harness.py (kronecker
at 11, the least n with Kronecker data, since at 10 that suite checks no n),
`table 2 30` in all three formats, `epsilon --p 5 --q 3` and `cf --value 5/13`,
and `slope`, `resolution` and `walls` for n = 2, 5 and 25, each in text and
--json, plus `walls --svg`.  sys.setprofile records the code object of every
Python function that is called.

A function counts as reached when its code ran.  A class counts as reached
when code written in its own body ran (a method, a property, a cached
property, or the __init__ a dataclass generates), or, for a class with no code
of its own, an exception, when one was constructed, which a recording
__init__ sees for the length of the runs.  String constants hold no code and
are not checked.  A KEPT name is a name of planecone.__all__ or a method
"Class.name" of one of its classes, and each must still be unreached, so an
entry leaves the list when a caller appears.
"""

import contextlib
import inspect
import io
import sys
from functools import cached_property

import pytest

import planecone
from planecone import cli

import counting

KEPT = {
    "exceptional_slope_of": "the value path of _as_slope, which public functions take when given a rational",
    "CantorPointError": "bench/workloads.py counts it; it goes with the depth cap of ROADMAP item 1",
    "DyadicAddress.coerce": "epsilon's reader of outside input, an address not given as two ints",
    "QuadSurd.__eq__": "printed surds compare by value (acceptance criterion 12)",
    "QuadSurd.__hash__": "and hash as they compare (acceptance criterion 12)",
    "ExceptionalSlope.interval_radius": "the exact half-width x_alpha of I_alpha (acceptance criterion 10)",
    "Wall.vertical": "the geometry of equal slopes, where a wall is a vertical line",
}

DEPTHS = {"cf": 3, "intervals": 2, "gamma": 10, "resolution": 10, "kronecker": 11, "walls": 6}


def commands(svg):
    yield from (["verify", suite, "--depth", str(depth)] for suite, depth in DEPTHS.items())
    yield from (["table", "2", "30", "--format", fmt] for fmt in ("csv", "json", "md"))
    for json in ([], ["--json"]):
        yield ["epsilon", "--p", "5", "--q", "3", *json]
        yield ["cf", "--value", "5/13", *json]
        for n in ("2", "5", "25"):
            yield from ([command, "--n", n, *json] for command in ("slope", "resolution", "walls"))
    yield ["walls", "--n", "25", "--svg", str(svg)]


def codes(binding):
    """The code objects a class attribute runs: a function's, or its getters'."""
    if isinstance(binding, (classmethod, staticmethod)):
        binding = binding.__func__
    elif isinstance(binding, cached_property):
        binding = binding.func
    elif isinstance(binding, property):
        return [code for f in (binding.fget, binding.fset, binding.fdel) if f for code in codes(f)]
    code = getattr(binding, "__code__", None)
    return [code] if code else []


def own_codes(cls):
    return [code for binding in vars(cls).values() for code in codes(binding)]


def exported(kind):
    return {name: getattr(planecone, name) for name in planecone.__all__ if kind(getattr(planecone, name))}


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """The code objects that ran and the bodiless classes constructed over the fixed runs."""
    seen, made = set(), set()
    bodiless = [cls for cls in exported(inspect.isclass).values() if not own_codes(cls)]

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def recording(base):
        def __init__(self, *args, **kwargs):
            made.add(type(self))
            base(self, *args, **kwargs)

        return __init__

    svg = tmp_path_factory.mktemp("reachability") / "walls.svg"
    with pytest.MonkeyPatch.context() as m, contextlib.redirect_stdout(io.StringIO()):
        counting.empty_memos(m.setattr)
        for cls in bodiless:
            m.setattr(cls, "__init__", recording(cls.__init__))
        before = sys.getprofile()
        sys.setprofile(profile)
        try:
            for argv in commands(svg):
                cli.main(argv)
        finally:
            sys.setprofile(before)
    return seen, made


def reached(name, seen, made):
    owner, _, attr = name.partition(".")
    obj = getattr(planecone, owner)
    if attr:
        return any(code in seen for code in codes(vars(obj)[attr]))
    if inspect.isclass(obj):
        own = own_codes(obj)
        return any(code in seen for code in own) if own else obj in made
    return obj.__code__ in seen


def test_each_public_name_is_reached_or_kept(ran):
    names = [*exported(inspect.isclass), *exported(inspect.isfunction)]
    assert all(isinstance(getattr(planecone, name), str) for name in set(planecone.__all__) - set(names))
    unreached = sorted(name for name in names if name not in KEPT and not reached(name, *ran))
    assert not unreached, "no run reaches %s, and KEPT gives no reason to keep them" % unreached


def test_each_kept_name_exists_and_is_still_unreached(ran):
    for name in KEPT:
        owner, _, attr = name.partition(".")
        assert owner in planecone.__all__ and (not attr or attr in vars(getattr(planecone, owner))), name
    now_reached = sorted(name for name in KEPT if reached(name, *ran))
    assert not now_reached, "%s now have a caller; take them out of KEPT" % now_reached
