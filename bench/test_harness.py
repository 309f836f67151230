"""Fast self-test of the benchmark harness on tiny inputs.

Run from the repository root:

    python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import planecone  # noqa: E402
import run  # noqa: E402
from spans import DETERMINISTIC, Tracer  # noqa: E402
from workloads import SUITES, WORKLOADS, DeepDescent, VerifySuites  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_DEPTHS = {"cf": 3, "intervals": 2, "gamma": 10, "resolution": 10, "kronecker": 10, "walls": 6}


def workload(name: str, seed: int = 1):
    wl = WORKLOADS[name](planecone, seed, ROOT)
    if isinstance(wl, VerifySuites):
        wl.depths = TINY_DEPTHS
    return wl


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_streams_repeat_per_seed():
    for name in WORKLOADS:
        first = list(islice(workload(name, 7).inputs(), 60))
        assert first == list(islice(workload(name, 7).inputs(), 60))
        assert first != list(islice(workload(name, 8).inputs(), 60))


def test_tiny_prefixes_pass_their_oracles():
    for name in WORKLOADS:
        wl = workload(name)
        records, _ = run.run_answers(wl, islice(wl.inputs(), 12))
        attempted, failed, faults, _ = run.assess(wl, records)
        assert faults == [] and attempted >= 12


def test_oracles_reject_wrong_answers():
    cone = workload("cone_table")
    assert cone.check(5, "5,2,2") is None
    assert cone.check(5, "5,2,3") is not None
    assert cone.check(4, "4,3/2,14/9") is not None

    walls = workload("resolution_walls")
    res, wall, kd, pair = walls.answer(25)
    assert walls.check(25, (res, wall, kd, pair)) is None
    assert walls.check(25, (res, planecone.collapsing_wall(24), kd, pair)) is not None

    deep = workload("deep_descent")
    x = Fraction(3820, 10000)
    good = planecone.associated_slope(x)
    assert deep.check(("associated_slope", x), good) is None
    assert deep.check(("associated_slope", x), planecone.epsilon((0, 0))) is not None
    assert deep.check(("delta", x), planecone.delta(x) + 1) is not None

    verify = workload("verify_suites")
    broken = [planecone.CheckResult("gamma inversion", False, "1/10 failed, first: n=3")]
    assert verify.check("gamma", broken) is not None
    assert verify.credit(broken) == (10, 1)


def test_depth_cap_counts_as_failed_not_as_fault():
    with localcontext() as ctx:
        ctx.prec = 100
        x0_digits = int(((3 - Decimal(5).sqrt()) / 2).scaleb(70))
    too_deep = ("delta", Fraction(x0_digits + 1, 10 ** 70))
    deep = DeepDescent(planecone, 1, ROOT)
    records, _ = run.run_answers(deep, [too_deep])
    assert isinstance(records[0][1], planecone.CantorPointError)
    attempted, failed, faults, _ = run.assess(deep, records)
    assert (attempted, failed, faults) == (1, 1, [])


def test_deep_descent_fails_the_same_count_for_every_seed():
    deep = workload("deep_descent")
    assert deep.run_length(20) % deep.window == 0
    failed = set()
    for seed in (1, 2):
        wl = workload("deep_descent", seed)
        records, _ = run.run_answers(wl, islice(wl.inputs(), wl.window))
        attempted, fails, faults, _ = run.assess(wl, records)
        assert faults == [] and attempted == wl.window
        failed.add(fails)
    assert len(failed) == 1


def test_tracer_restores_bindings_and_keeps_answers():
    wl = workload("verify_suites")
    before = planecone.stability.associated_slope
    plain, _ = run.run_answers(wl, list(SUITES))
    with Tracer(planecone) as tracer:
        traced, _ = run.run_answers(wl, list(SUITES), tracer=tracer)
        assert planecone.stability.associated_slope is not before
    assert planecone.stability.associated_slope is before
    assert "__post_init__" in planecone.QuadSurd.__dict__
    assert run.render(wl, plain) == run.render(wl, traced)
    assert tracer.calls()["exceptional.associated_slope"] > 0
    assert all(tracer.end[i] >= tracer.start[i] for i in range(len(tracer.start)))


def test_end_to_end_output_contract():
    proc = run_bench("--workload", "cone_table", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_counters_repeat_and_match_untraced():
    for name, answers in (("cone_table", "40"), ("deep_descent", "12")):
        results = []
        for _ in range(2):
            proc = run_bench("--workload", name, "--seed", "5", "--seconds", "1",
                             "--trace", "1", "--answers", answers)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        first, second = (r["metrics"] for r in results)
        assert results[0]["correct"]
        assert set(first) == {m["name"] for m in SPEC["per_layer"]}
        assert {k: first[k] for k in DETERMINISTIC} == {k: second[k] for k in DETERMINISTIC}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "cone_table", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
