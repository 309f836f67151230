"""One harness that counts the package's work, for the tests and tools/suite_work.py.

wrap replaces one binding by a wrapper that records each call that returns,
installed through a setattr(owner, name, value): monkeypatch.setattr in a
test, a Patcher in a tool.  Each counter below is wrap on one binding; it
takes the setattr and returns the list it records in.  Stdlib only.
"""

import ast
import contextlib
import sys
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path

import planecone.bridgeland as bridgeland
import planecone.exceptional as exceptional
import planecone.resolution as resolution
import planecone.verify as verify
from planecone.chern import ChernCharacter
from planecone.contfrac import ContinuedFraction
from planecone.exactnum import QuadSurd


def wrap(setattr, owner, name, record=None, *, call=None, into=None, everywhere=False):
    """Wrap owner.name, a function, method, classmethod or staticmethod; return its record list.

    A call that returns appends record(args, result), or its positional
    arguments args (a method's self first) when record is None.  call answers
    in place of the binding, so a test swaps a binding for a broken one here
    too; into is a list to share; everywhere wraps each planecone module that
    binds the same object.
    """
    binding = vars(owner)[name]
    kind = type(binding) if isinstance(binding, (classmethod, staticmethod)) else None
    answer = call or (binding.__func__ if kind else binding)
    records = [] if into is None else into

    def wrapped(*args, **kwargs):
        out = answer(*args, **kwargs)
        records.append(record(args, out) if record else args)
        return out

    owners = [owner]
    if everywhere:
        planecone = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "planecone"]
        owners = [m for m in planecone if getattr(m, name, None) is binding]
    for target in owners:
        setattr(target, name, kind(wrapped) if kind else wrapped)
    return records


class Patcher(contextlib.ExitStack):
    """A setattr that puts each binding it replaces back when its with-block exits."""

    def __call__(self, owner, name, value):
        self.callback(setattr, owner, name, vars(owner)[name])
        setattr(owner, name, value)


def _first(args, out):
    return args[0]


def fractions(setattr):
    """Every Fraction built: by __new__, and from Python 3.12 on by _from_coprime_ints."""
    built = wrap(setattr, Fraction, "__new__")
    if "_from_coprime_ints" in vars(Fraction):
        wrap(setattr, Fraction, "_from_coprime_ints", into=built)
    return built


def characters(setattr):
    """Every ChernCharacter built, by its constructor or by _of, which skips __init__."""
    built = wrap(setattr, ChernCharacter, "__init__", _first)
    return wrap(setattr, ChernCharacter, "_of", lambda args, out: out, into=built)


addresses = partial(wrap, owner=exceptional.DyadicAddress, name="__post_init__", record=_first)
slopes = partial(wrap, owner=exceptional.ExceptionalSlope, name="__init__", record=_first)
surds = partial(wrap, owner=QuadSurd, name="__post_init__", record=_first)
seq_terms = partial(wrap, owner=resolution.SeqTerm, name="__init__", record=_first)
continued_fractions = partial(wrap, owner=ContinuedFraction, name="__init__", record=_first)
# wall_between builds every pair wall, in bridgeland, and every collapsing wall, in
# resolution; walks record k, and cores the n of each min_slope(n) in resolution,
# which only the core memo's builder calls, once a miss
walls = partial(wrap, owner=bridgeland, name="wall_between", everywhere=True)
pair_walls = partial(wrap, owner=bridgeland, name="_pair_wall")
nestings = partial(wrap, owner=verify, name="nested")
lookups = partial(wrap, owner=exceptional, name="exceptional_slope_of", everywhere=True)
walks = partial(wrap, owner=exceptional, name="_walk", record=_first, everywhere=True)
cores = partial(wrap, owner=resolution, name="min_slope", record=_first)


def asked(setattr, walk=None):
    """Every slope a walk asks its choose about, walked by _walk or by walk in its place."""
    slopes, walk = [], walk or exceptional._walk

    def asking(k, choose, *args):
        return walk(k, lambda s: slopes.append(s) or choose(s), *args)

    walks(setattr, call=asking)
    return slopes


def empty_core_memo(setattr):
    """Install and return an empty resolution memo with the shared one's bound."""
    shared = resolution._core_of
    memo = lru_cache(**shared.cache_parameters())(shared.__wrapped__)
    setattr(resolution, "_core_of", memo)
    return memo


def empty_memos(setattr):
    """Install empty slope and resolution memos, so every slope and resolution is built anew."""
    setattr(exceptional, "_MEMO", {})
    return empty_core_memo(setattr)


def suite_depths():
    """The depths of one verify_suites round: SUITE_DEPTHS of bench/workloads.py, read by ast."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SUITE_DEPTHS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("bench/workloads.py assigns no SUITE_DEPTHS")
