#!/usr/bin/env python3
"""Run every workload over several seeds and report each metric's spread.

Run from the repository root:

    python3 bench/report.py --write bench/baseline.json

For each workload in BENCHMARK.json this runs ``bench/run.py`` untraced once
per seed (1..SEEDS) for the run length in BENCHMARK.json, and prints, per
end-to-end metric, the median, the quartiles and the interquartile spread as
a share of the median, next to a third of the metric's bound.  It then makes
two traced runs with the same seed and checks that every deterministic
per-layer counter repeats exactly.  The exit code is 1 if any run fails, any
spread exceeds its bound, or a counter does not repeat.  With --write the
figures are saved, with the Python version and core count, as the baseline
later changes are compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from spans import DETERMINISTIC
from workloads import WORKLOADS

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = 10
TRACE_SEED = 1


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run %s seed %d trace %d failed (exit %d):\n%s%s" % (
            workload, seed, trace, proc.returncode, proc.stdout, proc.stderr))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("run %s seed %d trace %d was not correct" % (workload, seed, trace))
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", type=Path, help="save the figures as JSON here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    ok = True
    out = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "run_seconds": seconds,
        "seeds": list(range(1, SEEDS + 1)),
        "workloads": {},
    }
    for name in whys:
        runs = [run(name, seed, seconds, 0) for seed in out["seeds"]]
        print("%s (%d runs of %d s)" % (name, len(runs), seconds))
        e2e = {}
        for metric, m in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            s.update(unit=m["unit"], better=m["better"], bound=m["bound"])
            e2e[metric] = s
            flag = "ok" if s["spread"] < m["bound"] / 3 else "WIDE"
            if s["spread"] > m["bound"]:
                ok = False
                flag = "OVER BOUND"
            print("  %-16s median %14.6f %-5s q1 %14.6f q3 %14.6f spread %.4f (bound/3 %.4f) %s" % (
                metric, s["median"], m["unit"], s["q1"], s["q3"], s["spread"],
                m["bound"] / 3, flag))
        traced = [run(name, TRACE_SEED, seconds, 1) for _ in range(2)]
        first, second = (t["metrics"] for t in traced)
        drift = [k for k in DETERMINISTIC if first[k]["value"] != second[k]["value"]]
        if drift:
            ok = False
            print("  counters differ between two traced runs: %s" % ", ".join(drift))
        else:
            print("  %d deterministic counters repeat exactly (seed %d)" % (
                len(DETERMINISTIC), TRACE_SEED))
        out["workloads"][name] = {
            "why": whys[name],
            "input": WORKLOADS[name].size,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": e2e,
            "per_layer": {
                "seed": TRACE_SEED,
                "counters_repeat": not drift,
                "attempted": traced[0]["attempted"],
                "failed": traced[0]["failed"],
                "metrics": first,
            },
        }
    if args.write:
        args.write.write_text(json.dumps(out, indent=1) + "\n")
        print("wrote %s" % args.write)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
