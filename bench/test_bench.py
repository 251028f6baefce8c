"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

run.use_checkout_source()

import tracing  # noqa: E402
import workloads  # noqa: E402
from espsolver import exceptional, solver  # noqa: E402

# Inputs small enough for a test, inside the range reference.json covers.
SMALL = {
    "solve": [400, 410],
    "tabulate": list(range(400, 420)),
    "scan": [(2, 3000)],
    "scan-window": [(10**7, 10**7 + 500)],
}

DETERMINISTIC = [
    "solver.divisibility_tests",
    "solver.memo_misses",
    "solver.memo_entries",
    "base_sets.build_s2_calls",
    "base_sets.trial_divisions",
    "base_sets.is_prime_calls",
    "exceptional.candidates",
    "exceptional.exceptional_found",
] + [f"exceptional.exit_r{r}" for r in tracing.EXIT_RS]


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def traced_pass(workload, inputs, reference):
    runner = workloads.Runner(workload, reference)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = runner.run_pass(
            inputs, time.perf_counter() + 60, around=tracer.call, store=tracer.memo_class
        )
    assert (result.attempted, result.failed) == (len(inputs), 0), runner.errors
    return tracer.layer_metrics(result.wall_s)


def test_pinned_divisibility_tests_for_n15():
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.call("solver.calc_solution", solver.calc_solution, 15, tracer.memo_class())
    metrics = tracer.layer_metrics(1.0)
    assert metrics["solver.divisibility_tests"] == 11
    assert metrics["solver.memo_entries"] == 12


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_exactly(workload, reference):
    first = traced_pass(workload, SMALL[workload], reference)
    second = traced_pass(workload, SMALL[workload], reference)
    assert {k: first[k] for k in DETERMINISTIC} == {k: second[k] for k in DETERMINISTIC}


def test_layers_see_their_workloads(reference):
    solve = traced_pass("solve", SMALL["solve"], reference)
    assert solve["solver.divisibility_tests"] > 0 and solve["exceptional.candidates"] == 0
    assert solve["core.format_ms"] > 0
    window = traced_pass("scan-window", SMALL["scan-window"], reference)
    assert window["solver.divisibility_tests"] == 0
    assert window["exceptional.filter_calls_per_n"] == pytest.approx(2.0)
    scan = traced_pass("scan", SMALL["scan"], reference)
    assert scan["exceptional.exceptional_found"] == 8
    assert scan["exceptional.filter_calls_per_n"] == pytest.approx(1.0, abs=1e-3)


def test_self_times_account_for_the_pass(reference):
    metrics = traced_pass("solve", SMALL["solve"], reference)
    assert 0.95 < metrics["trace.coverage_ratio"] <= 1.0
    layers = sum(metrics[f"solver.shell_ms.r{r}"] for r in tracing.SHELL_RS)
    # cli.overhead_ms holds cli.main's own time and the formatting below it.
    layers += metrics["base_sets.build_s2_ms"] + metrics["cli.overhead_ms"]
    assert layers == pytest.approx(metrics["cli.main_ms"], rel=0.02)


def test_tracing_restores_the_originals():
    before = (solver.calc_shell, solver.MemoStore, exceptional.is_prime)
    with tracing.Tracer().installed():
        assert solver.calc_shell is not before[0]
    assert (solver.calc_shell, solver.MemoStore, exceptional.is_prime) == before


def test_wrong_output_counts_as_failed(reference):
    tampered = dict(reference)
    tampered[410] = (0, "0" * 16)
    runner = workloads.Runner("solve", tampered)
    result = runner.run_pass(SMALL["solve"], time.perf_counter() + 60)
    assert (result.attempted, result.failed, result.wrong) == (2, 1, 1)


def test_operation_over_its_cap_fails_without_hanging(reference, monkeypatch):
    monkeypatch.setattr(workloads, "OP_CAP_S", 0.05)
    runner = workloads.Runner("solve", reference)
    start = time.perf_counter()
    result = runner.run_pass([1200], start + 60)
    assert time.perf_counter() - start < 2.0
    assert (result.failed, result.wrong) == (1, 0)


def test_times_are_scaled_to_the_reference_speed():
    r = run.REFERENCE_S
    fast = workloads.PassResult(op_ms=[5.0, 10.0], calib_s=[r, r, r])
    slow = workloads.PassResult(op_ms=[10.0, 20.0], calib_s=[2 * r, 2 * r, 2 * r])
    warmup = workloads.PassResult(op_ms=[99.0])
    assert run.op_ms([warmup, fast, slow]) == pytest.approx([5.0, 10.0])
    assert run.scale(1.0, r, 3 * r) == pytest.approx(0.5)


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
        assert workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 8)


def test_run_without_source_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def traced_run(workload):
    proc = subprocess.run(
        [sys.executable, str(run.ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_traced_runs_of_one_seed_repeat_their_counters():
    first, second = traced_run("scan"), traced_run("scan")
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(first) == {m["name"] for m in spec["per_layer"]}
    assert first["exceptional.pool_speedup"] > 0
    assert {k: first[k] for k in DETERMINISTIC} == {k: second[k] for k in DETERMINISTIC}
