#!/usr/bin/env python3
"""planecone benchmark: one workload per run.

Run from the repository root (the package is imported from ./src):

    python3 bench/run.py --workload cone_table --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics.  One caller drives the public
functions in a closed loop, asking for the next answer only after the last
one returned, for --seconds seconds (a run stops on a round boundary); on
deep_descent, which has known failures, for a fixed number of answers that
lasts about as long at the package's present speed (Workload.run_length).
The process starts from a fresh interpreter, so the epsilon memo starts
empty as it does for a `planecone` command.  Every answer is checked by its
workload's oracle after the clock stops.  Times are reported at a reference
machine speed, measured by a probe kernel that runs between answers (see
PROBE_REF); the text table shows the median scale factor.

--trace 1 runs a fixed, seed-determined prefix of the same input stream with
every public function wrapped (see spans.py) and reports per-layer metrics.
It then re-runs that prefix untraced in a fresh interpreter, to check that
the answers are byte-identical and to measure the tracing overhead.  Spans
are written to .bench_out/spans-<workload>.tsv.gz.

Before the JSON line, stdout shows every metric with its unit and sample
count.  The last line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 1 when any answer fails its oracle.
Answers that raise CantorPointError on deep_descent are a known defect of
the package: they count as failed answers but not as oracle failures.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import SUITES, WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 11
# A shared 2-core machine can change speed by up to a factor of two within
# seconds, as other tenants come and go.  So every end-to-end time is scaled to a reference
# speed: a fixed probe kernel runs every PROBE_EVERY seconds, and a duration
# t measured while the probe took k seconds is reported as t * PROBE_REF / k.
PROBE_EVERY = 0.25
PROBE_REF = 0.004
# the child times its import, then runs the speed probe on the same core
SETUP_CODE = (
    "import time; t = time.perf_counter(); import planecone; took = time.perf_counter() - t\n"
    "import sys; sys.path.insert(0, %r); from run import SpeedScale\n"
    "probe = SpeedScale(); probe.sample(); print(took, probe.took[0], planecone.__file__)"
    % str(Path(__file__).resolve().parent)
)


def load_package():
    package_dir = SRC / "planecone"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit("bench: no planecone package under %s; run from the repository root" % SRC)
    sys.path.insert(0, str(SRC))
    import planecone

    if Path(planecone.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit("bench: imported planecone from %s, not %s" % (planecone.__file__, SRC))
    return planecone


def probe_kernel() -> None:
    """Fixed pure-Python work of the package's kind: rationals, big ints, a dict."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 400):
        f = Fraction(i * i + 1, 2 * i + 3)
        acc = (acc + f) / 2
        seen[i % 17] = (f.numerator, f.denominator)


class SpeedScale:
    """Probe samples taken through a run, to scale its durations to reference speed."""

    def __init__(self):
        self.when: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        # the faster of two runs, so that one interrupt does not count
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            probe_kernel()
            t1 = time.perf_counter()
            best = min(best, t1 - t0)
        self.when.append(t1)
        self.took.append(best)

    def factor(self, when: float) -> float:
        """PROBE_REF over the mean probe time just before and just after ``when``."""
        i = bisect.bisect(self.when, when)
        near = self.took[max(0, i - 1):i + 1]
        return PROBE_REF * len(near) / sum(near)


def measure_setup() -> float:
    """Median time for a fresh interpreter to import planecone, at reference speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    # the first import of a checkout may compile bytecode; it is not counted
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, check=True, timeout=60,
        )
        seconds, probe, where = proc.stdout.split()
        if Path(where).resolve().parent != (SRC / "planecone").resolve():
            raise SystemExit("bench: set-up imported planecone from %s" % where)
        samples.append(float(seconds) * PROBE_REF / float(probe))
    return statistics.median(samples[1:])


def run_answers(wl, stream, seconds=None, tracer=None, scale=None):
    """Answer inputs in a closed loop.

    Returns [(input, output, seconds, finished at)] and the wall time.  With
    ``seconds`` the loop stops at the first round boundary past the deadline,
    otherwise when the stream ends.  An exception is kept as the output so the
    run goes on; assess() sorts known from unexpected ones.  With ``scale``
    the speed probe runs between answers every PROBE_EVERY seconds.
    """
    records = []
    t_start = time.perf_counter()
    deadline = None if seconds is None else t_start + seconds
    next_probe = t_start
    for i, inp in enumerate(stream, 1):
        if scale is not None and time.perf_counter() >= next_probe:
            scale.sample()
            next_probe = time.perf_counter() + PROBE_EVERY
        sid = tracer.begin(wl.span_name(inp)) if tracer is not None else None
        t0 = time.perf_counter()
        try:
            out = wl.answer(inp)
        except Exception as exc:
            out = exc
        t1 = time.perf_counter()
        if sid is not None:
            tracer.finish(sid)
        records.append((inp, out, t1 - t0, t1))
        if deadline is not None and i % wl.round_size == 0 and t1 >= deadline:
            break
    if scale is not None:
        scale.sample()
    return records, time.perf_counter() - t_start


def assess(wl, records):
    """Oracle pass, outside the timing: totals, faults and (attempted, failed) per record."""
    faults = []
    credits = []
    for inp, out, *_ in records:
        if isinstance(out, Exception):
            if not isinstance(out, wl.known_errors):
                faults.append("%r raised %s: %s" % (inp, type(out).__name__, out))
            credits.append((1, 1))
            continue
        a, f = wl.credit(out)
        problem = wl.check(inp, out)
        if problem is not None:
            faults.append(problem)
            f = a
        credits.append((a, f))
    attempted = sum(a for a, _ in credits)
    failed = sum(f for _, f in credits)
    return attempted, failed, faults, credits


def render(wl, records) -> list[str]:
    return [
        "%r raised %s" % (inp, type(out).__name__) if isinstance(out, Exception)
        else wl.render(inp, out)
        for inp, out, *_ in records
    ]


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def chunks(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items) - size + 1, size)]


def end_to_end(wl, seconds: float):
    """End-to-end metrics of one timed run.

    Times are scaled to reference speed (see PROBE_REF).  Latency is per
    round (one answer, or one pass over the suites on verify_suites), over the
    rounds in which nothing failed.  Throughput, and the p99 latency, are
    medians over windows of ``wl.window`` rounds, so that a slow spell of the
    machine moves one window rather than the figure.  Peak RSS is read once
    the traced prefix's inputs are done.
    """
    setup_s = measure_setup()
    scale = SpeedScale()
    stream = wl.inputs()
    length = wl.run_length(seconds)
    prefix = wl.trace_answers if length is None else min(wl.trace_answers, length)
    records, wall = run_answers(wl, islice(stream, prefix), scale=scale)
    # read after a fixed amount of work, so a faster program that gets
    # through more answers (and memoizes more slopes) does not look bigger
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if length is None:
        more, more_wall = run_answers(wl, stream, seconds=seconds - wall, scale=scale)
    else:
        more, more_wall = run_answers(wl, islice(stream, length - prefix), scale=scale)
    records += more
    wall += more_wall
    attempted, failed, faults, credits = assess(wl, records)
    factors = [scale.factor(when) for *_, when in records]
    scaled = [r[2] * f for r, f in zip(records, factors)]
    rounds = [
        (sum(a - f for a, f in cr), sum(f for _, f in cr), sum(sc))
        for sc, cr in zip(chunks(scaled, wl.round_size), chunks(credits, wl.round_size))
    ]
    latencies = sorted(secs * 1000 for _, f, secs in rounds if f == 0)
    windows = chunks(rounds, wl.window) or [rounds]
    rates = [sum(r[0] for r in w) / sum(r[2] for r in w) for w in windows]
    tails = [
        nearest_rank(ms, 0.99)
        for ms in (sorted(secs * 1000 for _, f, secs in w if f == 0) for w in windows) if ms
    ]
    answered = attempted - failed
    samples = "%d samples" % len(latencies)
    metrics = {
        "answers_per_s": (statistics.median(rates), "1/s", "median of %d windows; %d answers in %.3f s, speed factor %.3f" % (
            len(rates), answered, wall, statistics.median(factors))),
        "answer_ms.p50": (statistics.median(latencies) if latencies else 0.0, "ms", samples),
        "answer_ms.p99": (statistics.median(tails) if tails else 0.0, "ms",
                          "median of %d windows' p99; %s" % (len(tails), samples)),
        "answered_ratio": (answered / attempted, "ratio",
                           "failed_ratio %.6f = %d/%d" % (failed / attempted, failed, attempted)),
        "setup_s": (setup_s, "s", "median of %d imports" % SETUP_SAMPLES),
        "peak_rss_mb": (peak_rss_mb, "MB", "after the first %d inputs" % prefix),
    }
    return attempted, failed, faults, metrics


def scaled_seconds(records, scale: SpeedScale) -> float:
    """Total answer time of ``records`` at reference speed."""
    return sum(secs * scale.factor(when) for _, _, secs, when in records)


def reference_pass(wl) -> dict:
    scale = SpeedScale()
    records, _ = run_answers(wl, islice(wl.inputs(), wl.trace_answers), scale=scale)
    return {"digest": digest(render(wl, records)), "seconds": scaled_seconds(records, scale)}


def traced(wl, pc):
    scale = SpeedScale()
    with Tracer(pc) as tracer:
        records, _ = run_answers(wl, islice(wl.inputs(), wl.trace_answers),
                                 tracer=tracer, scale=scale)
    traced_s = scaled_seconds(records, scale)
    attempted, failed, faults, _ = assess(wl, records)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
         "--seed", str(wl.seed), "--answers", str(wl.trace_answers), "--reference"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    )
    reference = json.loads(proc.stdout.splitlines()[-1])
    if reference["digest"] != digest(render(wl, records)):
        faults.append("traced answers differ from untraced answers")
    base = "over %d answers, traced prefix" % attempted
    metrics = {
        key: (value, unit, base)
        for key, (value, unit) in layer_metrics(tracer, attempted).items()
    }
    busy = tracer.busy_times()
    for suite in SUITES:
        metrics["verify.%s.busy_s" % suite] = (busy.get("verify." + suite, 0.0), "s", base)
    metrics["trace.overhead_ratio"] = (
        traced_s / reference["seconds"], "ratio",
        "traced %.3f s / untraced %.3f s, at reference speed" % (traced_s, reference["seconds"]),
    )
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("spans-%s.tsv.gz" % wl.name)
    spans = tracer.write(path)
    print("wrote %d spans to %s" % (spans, path.relative_to(ROOT)))
    return attempted, failed, faults, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--answers", type=int,
                        help="inputs in the traced prefix (default: the workload's own)")
    parser.add_argument("--reference", action="store_true",
                        help="internal: run the traced prefix untraced, print its digest")
    args = parser.parse_args(argv)
    pc = load_package()
    wl = WORKLOADS[args.workload](pc, args.seed, ROOT)
    if args.answers:
        wl.trace_answers = args.answers
    if args.reference:
        print(json.dumps(reference_pass(wl)))
        return 0
    if args.trace:
        attempted, failed, faults, metrics = traced(wl, pc)
    else:
        attempted, failed, faults, metrics = end_to_end(wl, args.seconds)
    print("workload %s  seed %d  trace %d  python %s  nproc %d" % (
        wl.name, wl.seed, args.trace, sys.version.split()[0], len(os.sched_getaffinity(0))))
    print("input: %s" % wl.size)
    for key, (value, unit, note) in metrics.items():
        print("%-50s %16.6f %-6s %s" % (key, value, unit, note))
    for fault in faults[:20]:
        print("FAULT %s" % fault)
    print(json.dumps({
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit, _) in metrics.items()},
    }))
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
