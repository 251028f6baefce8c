"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; timing limits are asserted alongside exactness.
"""

import time

import pytest

from espsolver.core import Solution, common_value, is_basic, validate
from espsolver.exceptional import is_sophie_germain, scan_exceptional
from espsolver.oracle import brute_force_solutions
from espsolver.solver import MemoStore, calc_shell, calc_solution, reference_solution

KNOWN_EXCEPTIONAL = [2, 3, 4, 6, 24, 114, 174, 444]


def report(number, label, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


def timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_1_golden_instance():
    result, elapsed = timed(lambda: calc_solution(15))
    ok = result == {Solution((2, 15), 13), Solution((3, 8), 13)} and elapsed < 0.010
    report(1, f"solve 15 exact in {elapsed * 1000:.2f} ms", ok)


def test_criterion_2_intermediate_traces():
    expected = {
        (5, 3): {Solution((2, 2, 2), 2)},
        (6, 3): set(),
        (4, 3): set(),
        (15, 4): set(),
        (7, 2): {Solution((2, 7), 5), Solution((3, 4), 5)},
        (5, 2): {Solution((2, 5), 3), Solution((3, 3), 3)},
    }
    memo = MemoStore()
    start = time.perf_counter()
    ok = all(
        calc_shell(k, r, memo).solutions == sols for (k, r), sols in expected.items()
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 0.010
    report(2, f"intermediate shell traces exact in {elapsed * 1000:.2f} ms", ok)


def test_criterion_3_oracle_equivalence():
    memo = MemoStore()
    start = time.perf_counter()
    ok = all(calc_solution(n, memo) == brute_force_solutions(n) for n in range(2, 65))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    report(3, f"oracle equivalence n=2..64 in {elapsed:.1f} s", ok)


@pytest.fixture(scope="module")
def big_scan():
    return scan_exceptional(2, 100_000, use_sg_filter=True)


def test_criterion_4_exceptional_set(big_scan):
    ok = big_scan.exceptional == KNOWN_EXCEPTIONAL
    ok = ok and big_scan.elapsed_ms < 300_000
    report(
        4,
        f"scan [2, 1e5] found {big_scan.exceptional} in {big_scan.elapsed_ms:.0f} ms",
        ok,
    )


def test_criterion_5_sophie_germain_link(big_scan):
    ok = all(is_sophie_germain(n - 1) for n in big_scan.exceptional if n > 2)
    # non-sufficiency witness: 11 is SG yet 12 is not exceptional, its
    # unique non-basic solution being (2,2,2,2;8) per brute force
    ok = ok and is_sophie_germain(11)
    ok = ok and 12 not in big_scan.exceptional
    nonbasic_12 = {s for s in brute_force_solutions(12) if not is_basic(s)}
    ok = ok and nonbasic_12 == {Solution((2, 2, 2, 2), 8)}
    report(5, "Sophie Germain necessity and n=12 witness", ok)


def _sieve_tau(limit):
    # divisor-count sieve, independent of trial division
    tau = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for multiple in range(d, limit + 1, d):
            tau[multiple] += 1
    return tau


def test_criterion_6_invariant_suite():
    start = time.perf_counter()
    memo = MemoStore()
    ok = True

    # basic solution present for all n <= 500
    for n in range(2, 501):
        ok = ok and Solution(tuple(sorted((2, n))), n - 2) in calc_solution(n, memo)

    # common value <= 2n, equality only for the basic solution
    for n in range(2, 501):
        for s in calc_solution(n, memo):
            cv = common_value(s)
            ok = ok and validate(s) and cv <= 2 * n and (cv == 2 * n) == is_basic(s)

    # shells above the log2 bound are empty for n <= 200
    for n in range(2, 201):
        m = n.bit_length() - 1
        for r in range(m + 2, m + 5):
            ok = ok and not calc_shell(n, r, memo).solutions

    # |S_2(n)| is half the divisor count of n-1, rounded up, for n <= 10^4
    tau = _sieve_tau(10_000)
    for n in range(2, 10_001):
        ok = ok and len(calc_shell(n, 2, MemoStore())) == (tau[n - 1] + 1) // 2

    # memoization: second computation of a shell does no extension work
    memo2 = MemoStore()
    first = calc_shell(24, 4, memo2).solutions
    count = memo2.extend_evaluations
    ok = ok and count > 0
    ok = ok and calc_shell(24, 4, memo2).solutions == first
    ok = ok and memo2.extend_evaluations == count

    # j iteration order cannot change any result set
    for n in range(2, 65):
        ok = ok and reference_solution(n, MemoStore()) == reference_solution(
            n, MemoStore(), j_descending=True
        )

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60
    report(6, f"invariant suite in {elapsed:.1f} s", ok)


def test_criterion_7_filter_independence():
    start = time.perf_counter()
    filtered = scan_exceptional(2, 2000, use_sg_filter=True)
    unfiltered = scan_exceptional(2, 2000, use_sg_filter=False)
    elapsed = time.perf_counter() - start
    ok = filtered.exceptional == unfiltered.exceptional == KNOWN_EXCEPTIONAL
    ok = ok and elapsed < 30
    report(7, f"filtered and unfiltered scans agree in {elapsed:.1f} s", ok)
