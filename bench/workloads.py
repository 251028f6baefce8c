"""Seeded inputs, one timed pass, and output checks for each workload.

A workload is a list of operations. One pass runs every operation once;
`run.py` repeats passes for the measured time. Every output is checked
against `reference.json` (solve, tabulate) or the known exceptional set
(scan, scan-window), and each operation runs under a time cap, so a wrong,
raising or stalled operation is counted as failed instead of ending the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

from espsolver import cli
from espsolver.core import Solution, validate
from espsolver.exceptional import scan_exceptional
from espsolver.solver import MemoStore, calc_solution

WORKLOADS = ("solve", "tabulate", "scan", "scan-window")

# OEIS A033179: the n whose only equal-sum-product solution is (2, n; n-2).
KNOWN_EXCEPTIONAL = (2, 3, 4, 6, 24, 114, 174, 444)

# An operation taking longer than this is stopped and counted as failed.
# The slowest operation at the seed (`esp solve` near n=770) takes ~0.5 s.
OP_CAP_S = 30.0

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Draw ranges. Each seed draws new n, but the draws are stratified and
# kept narrow so the work in a pass varies little from seed to seed, and
# operations are short so a run times each of them many times: the
# run-to-run spread has to stay inside the bounds in BENCHMARK.json.
SOLVE_RANGE = (400, 800)
SOLVE_STRATA = 6
SOLVE_JITTER = 8
TABULATE_START = 800
TABULATE_JITTER = 16
TABULATE_BLOCK = 200
SCAN_HI = 100_000
SCAN_JITTER = 1_000
WINDOW_BAND = (25_000_000, 35_000_000)
WINDOW_COUNT = 40
WINDOW_WIDTH = 3_000


def make_inputs(workload: str, seed: int) -> list:
    """The operation arguments of one pass; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "solve":
        # One n per stratum of SOLVE_RANGE, jittered around the stratum centre.
        lo, hi = SOLVE_RANGE
        width = (hi - lo) / SOLVE_STRATA
        return [
            round(lo + (i + 0.5) * width) + rng.randint(-SOLVE_JITTER, SOLVE_JITTER)
            for i in range(SOLVE_STRATA)
        ]
    if workload == "tabulate":
        start = TABULATE_START + rng.randint(-TABULATE_JITTER, TABULATE_JITTER)
        return list(range(start, start + TABULATE_BLOCK))
    if workload == "scan":
        return [(2, SCAN_HI + rng.randint(-SCAN_JITTER, SCAN_JITTER))]
    if workload == "scan-window":
        # One window somewhere in each of WINDOW_COUNT equal slots of the band.
        # A few n cost 100x the median check, so a pass needs many windows
        # for its time to repeat from seed to seed.
        lo, hi = WINDOW_BAND
        slot = (hi - lo) // WINDOW_COUNT
        starts = [lo + i * slot + rng.randrange(slot - WINDOW_WIDTH) for i in range(WINDOW_COUNT)]
        return [(start, start + WINDOW_WIDTH) for start in starts]
    raise ValueError(f"unknown workload {workload!r}")


def solution_digest(solutions) -> str:
    """Order-independent digest of a solution set."""
    text = ";".join(
        sorted(f"{','.join(map(str, s.nonunit))}:{s.units}" for s in solutions)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference() -> dict[int, tuple[int, str]]:
    """n -> (solution count, digest), recorded by record_reference.py."""
    doc = json.loads(REFERENCE_PATH.read_text())
    return {int(n): (count, digest) for n, (count, digest) in doc["solutions"].items()}


class OpTimeout(Exception):
    """An operation ran past its cap."""


def _on_alarm(signum, frame):
    raise OpTimeout


@dataclass
class PassResult:
    """Timings and outcome of one pass."""

    wall_s: float = 0.0  # the whole pass, calibrations left out
    op_ms: list[float] = field(default_factory=list)
    calib_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    output_bytes: int = 0
    complete: bool = True


class Runner:
    """Runs passes of one workload and checks every output.

    `around(label, fn, *args)` calls one operation; a tracer passes its own
    to record the operation as a root span. `store` makes the MemoStore the
    tabulate workload shares across its block. `calibrate()`, if given, is
    called before the first operation and after each one; it returns the
    host's current speed reading, kept in `calib_s`.
    """

    def __init__(self, workload: str, reference: dict[int, tuple[int, str]]):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.reference = reference
        self.errors: list[str] = []

    def run_pass(
        self, inputs: list, deadline: float, around=None, store=MemoStore, calibrate=None
    ) -> PassResult:
        """Run every operation once, stopping early at `deadline` (perf_counter)."""
        around = around or (lambda label, fn, *args: fn(*args))
        result = PassResult()
        memo = store() if self.workload == "tabulate" else None
        old = signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        try:
            if calibrate is not None:
                result.calib_s.append(calibrate())
            for arg in inputs:
                cap = min(OP_CAP_S, deadline - time.perf_counter())
                if cap <= 0:
                    result.complete = False
                    break
                result.attempted += 1
                t0 = time.perf_counter()
                try:
                    # The timer is off before any handler below runs, so an
                    # alarm due right as the call returns still lands here.
                    signal.setitimer(signal.ITIMER_REAL, cap)
                    try:
                        out = self._call(arg, memo, around)
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                except OpTimeout:
                    out, error = None, f"{self.workload} {arg}: over the {cap:.1f} s cap"
                except Exception as exc:  # any raise is a failed operation
                    out, error = None, f"{self.workload} {arg}: {exc!r}"
                    result.wrong += 1
                else:
                    error = None
                result.op_ms.append((time.perf_counter() - t0) * 1000.0)
                if calibrate is not None:
                    result.calib_s.append(calibrate())
                if error is None:
                    if isinstance(out, str):
                        result.output_bytes += len(out.encode())
                    try:
                        error = self._check(arg, out)
                    except Exception as exc:  # unparsable output is wrong output
                        error = f"{self.workload} {arg}: bad output {exc!r}"
                    result.wrong += error is not None
                if error is not None:
                    result.failed += 1
                    self.errors.append(error)
        finally:
            signal.signal(signal.SIGALRM, old)
        result.wall_s = time.perf_counter() - start - sum(result.calib_s)
        return result

    def _call(self, arg, memo, around):
        if self.workload == "solve":
            return _cli(around, ["solve", str(arg), "--json"])
        if self.workload == "tabulate":
            return around("solver.calc_solution", calc_solution, arg, memo)
        if self.workload == "scan":
            return around("exceptional.scan_exceptional", scan_exceptional, *arg)
        lo, hi = arg
        return _cli(around, ["scan", str(lo), str(hi), "--json"])

    def _check(self, arg, out) -> str | None:
        """None if `out` is the right answer for `arg`, else what is wrong."""
        if self.workload == "solve":
            doc = json.loads(out)
            if doc["n"] != arg:
                return f"solve {arg}: output is for n={doc['n']}"
            return self._check_solutions(arg, [Solution.from_dict(d) for d in doc["solutions"]])
        if self.workload == "tabulate":
            return self._check_solutions(arg, list(out))
        if self.workload == "scan":
            lo, hi = arg[:2]
            found, span = out.exceptional, (out.lo, out.hi)
        else:
            lo, hi = arg
            doc = json.loads(out)
            found, span = doc["exceptional"], (doc["lo"], doc["hi"])
        expected = [n for n in KNOWN_EXCEPTIONAL if lo <= n <= hi]
        if span != (lo, hi) or found != expected:
            return f"{self.workload} {arg}: got {found} on {span}, expected {expected}"
        return None

    def _check_solutions(self, n: int, solutions: list[Solution]) -> str | None:
        bad = [s for s in solutions if not validate(s) or s.n != n]
        if bad:
            return f"n={n}: invalid solutions {bad[:3]}"
        if len(set(solutions)) != len(solutions):
            return f"n={n}: duplicate solutions"
        if n not in self.reference:
            return f"n={n}: outside reference.json"
        got = (len(solutions), solution_digest(solutions))
        if got != self.reference[n]:
            return f"n={n}: got {got}, reference {self.reference[n]}"
        return None


def _cli(around, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = around("cli.main", cli.main, argv)
    if code != 0:
        raise RuntimeError(f"esp {' '.join(argv)} exited with {code}")
    return buf.getvalue()
