"""Span recorder for the traced benchmark run.

The tracer wraps every public function of planecone (the functions named in
``planecone.__all__``) wherever the package's modules bind them, plus the
``QuadSurd`` constructor.  Each call records one span: name, start, end and
the span that was open when it began.  Spans live in flat arrays so a run of a
million calls stays a few tens of megabytes; they are written out once, at the
end.  The package source is not touched: ``install`` swaps the bindings and
``uninstall`` puts the originals back.

Besides spans the tracer keeps the counts that need a call's arguments or
result: which ``surd_cmp`` calls compare two different radicands, the depth of
every ``associated_slope`` descent, and which ``epsilon`` calls asked for an
address never seen before in this process (a memo miss, since each benchmark
run starts from a fresh interpreter).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

QUADSURD_SPAN = "exactnum.quadsurd"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._bindings: list[tuple[object, str, object]] = []
        self.mixed_surd_cmp = 0
        self.depths: list[int] = []
        self.epsilon_new = 0
        self._seen_addresses: set[tuple[int, int]] = set()
        self.max_depth = (
            inspect.signature(package.associated_slope).parameters["max_depth"].default
        )

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- spans opened by the benchmark's own code ---------------------------

    def begin(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    # -- wrapping the package -----------------------------------------------

    def _wrap(self, fn, span_name: str, observe=None):
        nid = self._name_id(span_name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_surd_cmp(self, args, result) -> None:
        x, y = args[0], args[1]
        if getattr(x, "b", 0) and getattr(y, "b", 0) and x.d != y.d:
            self.mixed_surd_cmp += 1

    def _observe_descent(self, args, result) -> None:
        self.depths.append(result.address.q)

    def _observe_epsilon(self, args, result) -> None:
        key = (result.address.p, result.address.q)
        if key not in self._seen_addresses:
            self._seen_addresses.add(key)
            self.epsilon_new += 1

    def install(self) -> None:
        pkg = self.package
        observers = {
            "exactnum.surd_cmp": self._observe_surd_cmp,
            "exceptional.associated_slope": self._observe_descent,
            "exceptional.epsilon": self._observe_epsilon,
        }
        wrapped = {}
        for public in pkg.__all__:
            fn = getattr(pkg, public)
            if inspect.isfunction(fn):
                span_name = "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)
                wrapped[id(fn)] = (fn, self._wrap(fn, span_name, observers.get(span_name)))
        modules = [
            m for key, m in sys.modules.items()
            if key == pkg.__name__ or key.startswith(pkg.__name__ + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, hit[1])
        surd = pkg.QuadSurd
        self._bindings.append((surd, "__post_init__", surd.__dict__["__post_init__"]))
        surd.__post_init__ = self._wrap(surd.__post_init__, QUADSURD_SPAN)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading the record -------------------------------------------------

    def calls(self) -> Counter:
        counts = Counter(self.name)
        return Counter({self.names[nid]: c for nid, c in counts.items()})

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus the time its children cover."""
        n = len(self.start)
        child = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out: dict[str, float] = {}
        names = self.names
        for i, nid in enumerate(self.name):
            key = names[nid]
            out[key] = out.get(key, 0.0) + (ends[i] - starts[i] - child[i])
        return out

    def busy_times(self) -> dict[str, float]:
        """Total duration per span name (child time included)."""
        out: dict[str, float] = {}
        names = self.names
        for i, nid in enumerate(self.name):
            key = names[nid]
            out[key] = out.get(key, 0.0) + (self.end[i] - self.start[i])
        return out

    def descent_depths(self) -> list[int]:
        """Depth of every descent; one that gave up counts at its depth cap."""
        failed = self.calls()["exceptional.associated_slope"] - len(self.depths)
        return self.depths + [self.max_depth] * failed

    def write(self, path) -> int:
        """Write spans as gzipped tab-separated lines; returns the span count."""
        names = self.names
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            for i, nid in enumerate(self.name):
                out.write(
                    "%d\t%d\t%s\t%.3f\t%.3f\n"
                    % (i, self.parent[i], names[nid],
                       (self.start[i] - t0) * 1e6, (self.end[i] - t0) * 1e6)
                )
        return len(self.start)


def layer_metrics(tracer: Tracer, answers: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics over a traced pass that produced ``answers`` answers."""
    calls = tracer.calls()
    own = tracer.self_times()
    layer_self: dict[str, float] = {}
    for key, seconds in own.items():
        layer = key.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
    depths = tracer.descent_depths()

    def per_answer(name: str) -> float:
        return calls[name] / answers

    def share(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    return {
        "exactnum.surd_cmp.calls_per_answer": (per_answer("exactnum.surd_cmp"), "count"),
        "exactnum.surd_cmp.self_s": (own.get("exactnum.surd_cmp", 0.0), "s"),
        "exactnum.surd_cmp.mixed_radicand_share": (
            share(tracer.mixed_surd_cmp, calls["exactnum.surd_cmp"]), "ratio"),
        "exactnum.quadsurd.constructions_per_answer": (per_answer(QUADSURD_SPAN), "count"),
        "exactnum.self_s": (layer_self.get("exactnum", 0.0), "s"),
        "exceptional.associated_slope.descents_per_answer": (
            per_answer("exceptional.associated_slope"), "count"),
        "exceptional.associated_slope.self_s": (
            own.get("exceptional.associated_slope", 0.0), "s"),
        "exceptional.descent_depth.p50": (
            statistics.median(depths) if depths else 0.0, "levels"),
        "exceptional.descent_depth.max": (max(depths, default=0), "levels"),
        "exceptional.epsilon.calls_per_answer": (per_answer("exceptional.epsilon"), "count"),
        "exceptional.epsilon.new_slope_ratio": (
            share(tracer.epsilon_new, calls["exceptional.epsilon"]), "ratio"),
        "exceptional.self_s": (layer_self.get("exceptional", 0.0), "s"),
        "chern.exceptional_character.calls_per_answer": (
            per_answer("chern.exceptional_character"), "count"),
        "chern.self_s": (layer_self.get("chern", 0.0), "s"),
        "stability.min_slope.calls_per_answer": (per_answer("stability.min_slope"), "count"),
        "stability.gamma_inv.self_s": (own.get("stability.gamma_inv", 0.0), "s"),
        "stability.self_s": (layer_self.get("stability", 0.0), "s"),
        "resolution.gaeta_resolution.calls_per_answer": (
            per_answer("resolution.gaeta_resolution"), "count"),
        "resolution.self_s": (layer_self.get("resolution", 0.0), "s"),
        "bridgeland.self_s": (layer_self.get("bridgeland", 0.0), "s"),
        "contfrac.self_s": (layer_self.get("contfrac", 0.0), "s"),
    }


# Per-layer metrics whose values are counts, so they must repeat exactly
# between two traced runs with the same seed.
DETERMINISTIC = (
    "exactnum.surd_cmp.calls_per_answer",
    "exactnum.surd_cmp.mixed_radicand_share",
    "exactnum.quadsurd.constructions_per_answer",
    "exceptional.associated_slope.descents_per_answer",
    "exceptional.descent_depth.p50",
    "exceptional.descent_depth.max",
    "exceptional.epsilon.calls_per_answer",
    "exceptional.epsilon.new_slope_ratio",
    "chern.exceptional_character.calls_per_answer",
    "stability.min_slope.calls_per_answer",
    "resolution.gaeta_resolution.calls_per_answer",
)
