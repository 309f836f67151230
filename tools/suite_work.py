"""Count the objects one warm round of each verify suite builds.

For each suite it prints the Fractions, DyadicAddresses, ChernCharacters and
walls (calls of wall_between, in every module that binds it) that one
run_suite(suite, depth) builds after a first round has warmed every memo,
counted by the tests' harness, tests/counting.py.  The depths are SUITE_DEPTHS of the benchmark's
bench/workloads.py, read with ast.  The counts depend on no machine, so they
can be compared across commits.  Stdlib only; run from anywhere:

    python tools/suite_work.py

It prints one line per suite, in SUITE_DEPTHS order, and then the total.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import counting  # noqa: E402
from planecone.verify import run_suite  # noqa: E402

COUNTED = (counting.fractions, counting.addresses, counting.characters, counting.walls)


def main() -> int:
    depths = counting.suite_depths()
    for suite, depth in depths.items():
        run_suite(suite, depth)
    totals = [0] * len(COUNTED)
    header = ("suite", "depth", "fractions", "addresses", "characters", "walls")
    print("%-12s %6s %10s %10s %11s %6s" % header)
    for suite, depth in depths.items():
        with counting.Patcher() as patch:
            built = [count(patch) for count in COUNTED]
            run_suite(suite, depth)
        counts = [len(b) for b in built]
        totals = [t + c for t, c in zip(totals, counts)]
        print("%-12s %6d %10d %10d %11d %6d" % (suite, depth, *counts))
    print("%-12s %6s %10d %10d %11d %6d" % ("total", "", *totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
