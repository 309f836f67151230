"""Count the objects one warm round of each verify suite builds.

For each suite it prints the Fractions, DyadicAddresses and ChernCharacters
that one run_suite(suite, depth) builds after a first round has warmed every
memo, and the walls it builds, counted as calls of bridgeland.wall_between,
which builds every pair wall and collapsing wall.  The depths are those of
the benchmark's verify_suites workload (SUITE_DEPTHS in bench/workloads.py,
which it reads with ast and does not import or edit).  The counts depend
on no machine, so they can be compared across commits.  Stdlib only; run
from anywhere:

    python tools/suite_work.py

It prints one line per suite, in SUITE_DEPTHS order, and then the total.
"""

from __future__ import annotations

import ast
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from planecone import bridgeland  # noqa: E402
from planecone.chern import ChernCharacter  # noqa: E402
from planecone.exceptional import DyadicAddress  # noqa: E402
from planecone.verify import run_suite  # noqa: E402


def suite_depths() -> dict[str, int]:
    """SUITE_DEPTHS as bench/workloads.py assigns it, read without running that file."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SUITE_DEPTHS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("bench/workloads.py assigns no SUITE_DEPTHS")


class Counter:
    """Counts, while installed, each Fraction, DyadicAddress, ChernCharacter and wall built."""

    def __init__(self) -> None:
        self.counts = {"fractions": 0, "addresses": 0, "characters": 0, "walls": 0}
        self._saved = []

    def _wrap(self, owner, name, key, kind=None) -> None:
        original = owner.__dict__[name]
        func = original.__func__ if isinstance(original, (classmethod, staticmethod)) else original
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return func(*args, **kwargs)

        self._saved.append((owner, name, original))
        setattr(owner, name, kind(counted) if kind else counted)

    def __enter__(self) -> "Counter":
        # Fraction arithmetic builds through __new__ before Python 3.12 and
        # through _from_coprime_ints from 3.12 on
        self._wrap(Fraction, "__new__", "fractions", staticmethod)
        if "_from_coprime_ints" in Fraction.__dict__:
            self._wrap(Fraction, "_from_coprime_ints", "fractions", classmethod)
        self._wrap(DyadicAddress, "__post_init__", "addresses")
        self._wrap(ChernCharacter, "__init__", "characters")
        self._wrap(ChernCharacter, "_of", "characters", classmethod)
        self._wrap(bridgeland, "wall_between", "walls")
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)


def main() -> int:
    depths = suite_depths()
    for suite, depth in depths.items():
        run_suite(suite, depth)
    totals = {"fractions": 0, "addresses": 0, "characters": 0, "walls": 0}
    header = ("suite", "depth", "fractions", "addresses", "characters", "walls")
    print("%-12s %6s %10s %10s %11s %6s" % header)
    for suite, depth in depths.items():
        with Counter() as counter:
            run_suite(suite, depth)
        for key, value in counter.counts.items():
            totals[key] += value
        print("%-12s %6d %10d %10d %11d %6d" % (suite, depth, *counter.counts.values()))
    print("%-12s %6s %10d %10d %11d %6d" % ("total", "", *totals.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
