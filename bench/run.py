"""esp-solver benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload solve --seed 1 --seconds 25 --trace 0

Run it from a checkout: it imports `espsolver` from the checkout's `src/`
and exits non-zero if that is missing. With `--trace 0` it reports the
end-to-end metrics listed in BENCHMARK.json; with `--trace 1` it reports
the per-layer metrics, from passes run with tracing installed (see
tracing.py). Times are scaled to a fixed reference speed of the host
(see `calibrate`). The last line of standard output is the JSON result;
the lines before it repeat each metric for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Every run stops starting operations after this long, so it ends within
# 180 s even when the program under test has become much slower.
HARD_DEADLINE_S = 150.0
SETUP_REPEATS = 15

# Seconds `reference_work()` takes on the baseline host (README) in its fast
# state. Reported times are scaled to the host running at that speed.
REFERENCE_S = 0.003


def use_checkout_source() -> None:
    """Put the checkout's src/ first on sys.path, or exit if it is missing."""
    if not (SRC / "espsolver" / "__init__.py").is_file():
        sys.exit(f"error: no espsolver package in {SRC}")
    sys.path.insert(0, str(SRC))


def reference_work() -> int:
    """Fixed pure-Python work of the kind the solver and the scans do:
    integer remainders, small sorted tuples, set and dict inserts."""
    groups: dict[int, set] = {}
    acc = 0
    for a in range(2, 50):
        for b in range(a, 120):
            key = tuple(sorted((b, a, (a * b) % 97 + 2)))
            groups.setdefault(sum(key) % 64, set()).add(key)
            acc += (a * b + 1) % (a + b)
    return acc + sum(len(g) for g in groups.values())


def calibrate() -> float:
    """Seconds `reference_work()` takes now: the host's current speed.

    The cores are shared with other tenants, and the same code runs 1x to
    ~2x its fastest time, changing within a second and at times staying
    slow for minutes, on every core. Timing this fixed work next to each
    operation and scaling the operation's time by REFERENCE_S over it
    removes most of that drift, which no statistic of raw times within one
    run can.
    """
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two calibrations, at the reference speed."""
    return seconds * 2.0 * REFERENCE_S / (before + after)


def measure_setup_s() -> float:
    """Median time from a fresh interpreter to `espsolver.cli` imported."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import espsolver.cli"
    times = []
    before = calibrate()
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        took = time.perf_counter() - t0
        after = calibrate()
        times.append(scale(took, before, after))
        before = after
    return statistics.median(times[1:])  # the first start may write bytecode


def run_passes(runner, inputs, seconds: float, deadline: float, **kwargs) -> list:
    """Repeat calibrated passes for `seconds` (at least one pass).

    The workload's first operation runs once before them, as a warm-up
    whose output is checked but whose time is not kept. A pass starts only
    if one as long as the longest so far would end in time, so a run takes
    `seconds` however slow the host is running.
    """
    start = time.perf_counter()
    passes = [runner.run_pass(inputs[:1], deadline, **kwargs)]
    longest = 0.0
    while len(passes) == 1 or time.perf_counter() + longest < start + seconds:
        t0 = time.perf_counter()
        passes.append(runner.run_pass(inputs, deadline, calibrate=calibrate, **kwargs))
        longest = max(longest, time.perf_counter() - t0)
        if not passes[-1].complete:
            break
    return passes


def timed(passes) -> list:
    """The passes whose times count: not the warm-up, and not a pass cut
    short by the deadline unless no other pass was timed."""
    return [p for p in passes if p.calib_s and p.complete] or passes[-1:]


def op_ms(passes) -> list[float]:
    """Each operation's median time over the run at the reference speed, in ms."""
    scaled = [
        [scale(ms, p.calib_s[i], p.calib_s[i + 1]) for i, ms in enumerate(p.op_ms)]
        for p in timed(passes)
    ]
    return [statistics.median(times) for times in zip(*scaled)]


def raw_wall_s(passes) -> float:
    """Median unscaled pass time, printed for a reader next to the result."""
    return statistics.median(sum(p.op_ms) for p in timed(passes)) / 1000.0


def end_to_end(runner, inputs, seconds, deadline):
    setup_s = measure_setup_s()
    passes = run_passes(runner, inputs, seconds, deadline)
    times = op_ms(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    speed = statistics.median(c for p in passes for c in p.calib_s) / REFERENCE_S
    print(f"# {len(timed(passes))} timed passes of {len(times)} operations")
    print(f"# unscaled median pass {raw_wall_s(passes):.4f} s; host at {speed:.3f}x reference time")
    metrics = {
        "wall_s": sum(times) / 1000.0,
        "op_p50_ms": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - failed / attempted,
    }
    return metrics, passes


def per_layer(runner, inputs, seconds, deadline):
    """Per-layer metrics from traced passes, each following an untraced one,
    so that both sides of `trace.overhead_ratio` see the same host state.
    A pair starts only if one as long as the longest so far still fits."""
    from tracing import Tracer

    scan = runner.workload == "scan"
    share = seconds * 2 / 3 if scan else seconds
    plain, traced, layers = [], [], []
    stop = time.perf_counter() + share
    longest = 0.0
    while not traced or time.perf_counter() + longest < stop:
        t0 = time.perf_counter()
        plain.append(runner.run_pass(inputs, deadline, calibrate=calibrate))
        tracer = Tracer()
        with tracer.installed():
            p = runner.run_pass(
                inputs, deadline, around=tracer.call, store=tracer.memo_class, calibrate=calibrate
            )
        layers.append(tracer.layer_metrics(p.wall_s))
        layers[-1]["cli.output_bytes"] = p.output_bytes
        traced.append(p)
        longest = max(longest, time.perf_counter() - t0)
        if not (plain[-1].complete and p.complete):
            break
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.overhead_ratio"] = sum(op_ms(traced)) / sum(op_ms(plain))
    passes = plain + traced
    metrics["exceptional.pool_speedup"] = 0.0
    if scan:
        speedup, probe = pool_speedup(runner, inputs, seconds - share, deadline)
        metrics["exceptional.pool_speedup"] = speedup
        passes += probe
    print(f"# {len(plain)} untraced and {len(traced)} traced passes")
    return metrics, passes


def pool_speedup(runner, inputs, seconds, deadline):
    """scan_exceptional time with workers=1 over that with workers=min(2, nproc)."""
    workers = min(2, len(os.sched_getaffinity(0)))
    single = [arg + (True, 1) for arg in inputs]
    pooled = [arg + (True, workers) for arg in inputs]
    one, many = [], []
    stop = time.perf_counter() + seconds
    while not one or time.perf_counter() < stop:
        one.append(runner.run_pass(single, deadline, calibrate=calibrate))
        many.append(runner.run_pass(pooled, deadline, calibrate=calibrate))
        if not (one[-1].complete and many[-1].complete):
            break
    return sum(op_ms(one)) / sum(op_ms(many)), one + many


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    use_checkout_source()
    import workloads

    deadline = time.perf_counter() + HARD_DEADLINE_S
    runner = workloads.Runner(args.workload, workloads.load_reference())
    inputs = workloads.make_inputs(args.workload, args.seed)
    measure = per_layer if args.trace else end_to_end
    metrics, passes = measure(runner, inputs, args.seconds, deadline)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(metrics)}")
    for error in runner.errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    for m in listed:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": sum(p.wrong for p in passes) == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
