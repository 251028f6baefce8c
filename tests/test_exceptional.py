import hashlib
import os
from math import gcd, isqrt

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from espsolver import exceptional, solver
from espsolver.core import DomainError, Solution, is_basic, validate
from espsolver.exceptional import (
    MAX_SCAN_HI,
    ScanReport,
    find_first_nonbasic,
    is_exceptional,
    is_prime,
    is_sophie_germain,
    scan_exceptional,
)
from espsolver.reference import MemoStore, calc_shell, reference_solution
from espsolver.solver import BLOCK, _solve_block, calc_solution, walk_shells

KNOWN_EXCEPTIONAL = [2, 3, 4, 6, 24, 114, 174, 444]


class TestSophieGermain:
    @pytest.mark.parametrize(
        "p,expected",
        [(5, True), (7, False), (443, True), (2, True), (3, True), (1, False)],
    )
    def test_examples(self, p, expected):
        assert is_sophie_germain(p) == expected


def prime_factors(m):
    """The prime factors of m >= 1, by trial division, not by the solver's code."""
    factors, q = [], 2
    while q * q <= m:
        while m % q == 0:
            factors.append(q)
            m //= q
        q += 1 + (q > 2)
    return factors + [m] * (m > 1)


class TestPrefixConditions:
    """The closed forms of the prefixes (2, 2) and (3) in the module
    docstring, for n = 6k with 12k-1 prime, against the members that
    `walk_shells` finds."""

    @staticmethod
    def assert_forms_match_the_walk(n):
        has_22 = any(s.nonunit[:2] == (2, 2) for s in walk_shells(n, 4, 4))
        has_3 = any(s.nonunit[0] == 3 for s in walk_shells(n, 3, 3))
        assert has_22 == any(q % 4 == 3 for q in prime_factors(4 * n + 1)), n
        assert has_3 == any(q % 3 == 2 for q in prime_factors(3 * n + 1)), n

    def test_every_n_to_1e5(self):
        ns = [6 * k for k in range(1, 10**5 // 6 + 1) if is_prime(12 * k - 1)]
        assert len(ns) == 4489
        for n in ns:
            self.assert_forms_match_the_walk(n)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=10**5 // 6, max_value=10**8 // 6))
    def test_up_to_1e8(self, k):
        while not is_prime(12 * k - 1):
            k += 1
        self.assert_forms_match_the_walk(6 * k)

    def test_prefix_3_needs_12k_minus_1_prime(self):
        # 3*108 + 1 = 5^2 * 13 has a prime factor 5 = 2 (mod 3), but its only
        # divisor pair in that class is (5, 65), and 5 < 3*3 - 1; 12*18 - 1 = 5 * 43
        assert prime_factors(3 * 108 + 1) == [5, 5, 13]
        assert [s.nonunit[0] for s in walk_shells(108, 3, 3)] == [2, 4]


class TestFindFirstNonbasic:
    def test_n15(self):
        s = find_first_nonbasic(15)
        assert s == Solution((3, 8), 13)

    def test_n6_none(self):
        assert find_first_nonbasic(6) is None

    def test_n12(self):
        assert find_first_nonbasic(12) == Solution((2, 2, 2, 2), 8)

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            find_first_nonbasic(1)

    def test_checks_its_range_first(self, monkeypatch):
        # the range check comes before the primality test of n - 1
        def refusing(m):
            raise AssertionError(f"is_prime({m}) ran before the range check")

        monkeypatch.setattr(exceptional, "is_prime", refusing)
        for n in (0, 1, MAX_SCAN_HI + 1):
            with pytest.raises(DomainError):
                find_first_nonbasic(n)

    def test_short_circuits_on_composite_n_minus_1(self, monkeypatch):
        # n-1 is composite, so S_2(n) already has a second element and no
        # higher shell may be walked.
        walks = []

        def recording_walk(n, first, last, limit=0):
            walks.append((first, last, limit))
            return walk_shells(n, first, last, limit)

        monkeypatch.setattr(exceptional, "walk_shells", recording_walk)
        for n in (16, 10**12):
            walks.clear()
            assert find_first_nonbasic(n) is not None
            assert walks == [(2, 2, 2)], n

    def test_second_member_of_s2_near_the_limit(self):
        # 10^12 - 1 = 3 * 333333333333: the smallest divisor above 1 is 3
        assert find_first_nonbasic(10**12) == Solution((4, 333333333334), 10**12 - 2)

    def test_first_hit_near_the_limit(self):
        # n - 1 is prime, so the walk decides: the first hits of the
        # trial-dividing walk, which the factored last levels must keep
        assert find_first_nonbasic(999_999_344_694) == Solution(
            (10, 1017, 98338022), 999_999_344_691
        )
        assert find_first_nonbasic(999_999_871_584).nonunit == (14, 16, 4484304357)

    def test_domain_limit(self):
        assert find_first_nonbasic(MAX_SCAN_HI) is not None
        assert not is_exceptional(MAX_SCAN_HI)
        for check in (find_first_nonbasic, is_exceptional):
            with pytest.raises(DomainError, match=str(MAX_SCAN_HI)):
                check(MAX_SCAN_HI + 1)

    def test_result_is_genuine_solution(self):
        memo = MemoStore()
        for n in range(2, 300):
            s = find_first_nonbasic(n)
            if s is not None:
                assert not is_basic(s)
                assert s in calc_solution(n, memo), n


class TestIsExceptional:
    @pytest.mark.parametrize("n", KNOWN_EXCEPTIONAL)
    def test_known_values(self, n):
        assert is_exceptional(n)

    @pytest.mark.parametrize("n", [5, 7, 12, 25, 115, 445])
    def test_non_exceptional(self, n):
        assert not is_exceptional(n)

    def test_n2_special_case(self):
        # exceptional although n-1 = 1 is not prime
        assert is_exceptional(2)

    def test_sg_filter_not_sufficient(self):
        # 11 is a Sophie Germain prime, yet 12 has a non-basic solution
        assert is_sophie_germain(11)
        assert not is_exceptional(12)

    def test_agrees_with_full_solver(self):
        # A second member of the reference S_2(n) already makes n not
        # exceptional, so the higher shells are built only when S_2(n) holds
        # just the basic solution (n = 2 and n with n-1 prime).
        memo = MemoStore()
        for n in range(2, 2001):
            sols = calc_shell(n, 2, memo).solutions
            if len(sols) == 1:
                sols = reference_solution(n, memo)
            full_verdict = len(sols) == 1 and is_basic(next(iter(sols)))
            assert is_exceptional(n) == full_verdict, n

    def test_independent_of_the_reference(self, refuse_the_reference):
        assert [n for n in range(2, 3001) if is_exceptional(n)] == KNOWN_EXCEPTIONAL
        assert scan_exceptional(2, 2000).exceptional == KNOWN_EXCEPTIONAL

    def test_scan_against_the_block_walk(self):
        # An engine that shares no sieve, rows or per-n walk with the scan:
        # the aligned blocks of `_solve_block`, each n exceptional when its
        # shells hold the basic solution alone.
        hi, found = 20_000, []
        for start in range(0, hi + 1, BLOCK):
            lo = max(start, 2)
            shells = _solve_block(lo, min(start + BLOCK - 1, hi))
            for i in range(len(shells[0])):
                members = [s for row in shells for s in row[i]]
                if members == [Solution((2, lo + i), lo + i - 2)]:
                    found.append(lo + i)
        assert found == KNOWN_EXCEPTIONAL
        assert scan_exceptional(2, hi).exceptional == found


class TestScan:
    def test_empty_window(self):
        assert scan_exceptional(7, 23).exceptional == []

    def test_filter_independence(self):
        # `use_sg_filter` is ignored: every scan reads the Sophie Germain
        # flags, so False gives every field that True gives but the time.
        # On [10^6, 3*10^6] the 6k-1 flags alone left the walk 6 n, not 4
        for lo, hi, found, walked in [(2, 2000, KNOWN_EXCEPTIONAL, 8), (10**6, 3 * 10**6, [], 4)]:
            with_flag, without = (scan_exceptional(lo, hi, flag) for flag in (True, False))
            assert without._replace(elapsed_ms=0) == with_flag._replace(elapsed_ms=0)
            assert (with_flag.exceptional, with_flag.walked) == (found, walked)

    def test_report_fields(self):
        report = scan_exceptional(2, 30)
        assert (report.lo, report.hi) == (2, 30)
        assert all(2 <= n <= 30 for n in report.exceptional)
        assert all(is_sophie_germain(n - 1) for n in report.exceptional if n > 2)
        # n=2 plus n in {3,4,6,12,24,30} with n-1 an SG prime
        assert report.sg_candidates == 7
        assert report.elapsed_ms >= 0

    def test_bad_ranges(self):
        with pytest.raises(DomainError):
            scan_exceptional(10, 5)
        with pytest.raises(DomainError):
            scan_exceptional(1, 5)

    def test_workers_match_single(self, monkeypatch):
        # 83 k in two segments, so a real pool starts
        monkeypatch.setattr(exceptional, "SEGMENT", 42)
        solo = scan_exceptional(2, 500, workers=1)
        multi = scan_exceptional(2, 500, workers=3)
        assert solo.exceptional == multi.exceptional
        assert solo.sg_candidates == multi.sg_candidates

    def test_theorem_soundness_sample(self):
        report = scan_exceptional(2, 5000)
        for n in report.exceptional:
            if n > 2:
                assert is_sophie_germain(n - 1)

    # `walked` counts the plan's work, not the answer, so every pin of it is
    # here and moves with the plan.  It depends on the rows' bound MAX_STEP,
    # not on the window's width, SEGMENT, the workers or `use_sg_filter`,
    # which is ignored: each window is scanned with it True, then False.  Up
    # to 10^5 the progressions leave only the exceptional values to the walk.
    @pytest.mark.parametrize(
        "lo,hi,walked_true,walked_false",
        [
            (2, 1000, 8, 8),
            (2, 10**5, 8, 8),
            (999_999_996_999, 999_999_999_999, 0, 0),
            (5 * 10**11, 5 * 10**11 + 3000, 0, 0),
            (10**9, 10**9 + 3000, 1, 1),
            (10**9, 10**9 + 9000, 1, 1),
            (3 * 10**7, 3 * 10**7 + 6000, 0, 0),
            (10**6, 3 * 10**6, 4, 4),
        ],
    )
    def test_walked_per_window(self, lo, hi, walked_true, walked_false):
        assert scan_exceptional(lo, hi, True).walked == walked_true
        assert scan_exceptional(lo, hi, False).walked == walked_false

    # Each n = 6k is sliced, looked up or walked by the same rows wherever
    # its window starts, so `walked` adds up over any split of a window.
    @settings(max_examples=12, deadline=None)
    @given(
        st.one_of(
            st.integers(min_value=3 * 10**7 - 10**5, max_value=3 * 10**7 + 10**5),
            st.integers(min_value=MAX_SCAN_HI - 10**5, max_value=MAX_SCAN_HI - 6000),
        ),
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=1, max_value=3000),
    )
    @example(lo=3 * 10**7, left=3000, right=3000)
    def test_walked_adds_up_over_a_split_window(self, lo, left, right):
        mid, hi = lo + left, lo + left + right
        whole = scan_exceptional(lo, hi).walked
        parts = [scan_exceptional(*part) for part in ((lo, mid), (mid + 1, hi))]
        assert whole == sum(part.walked for part in parts), (lo, mid, hi)

    def test_domain_limit(self):
        assert scan_exceptional(MAX_SCAN_HI, MAX_SCAN_HI).exceptional == []
        with pytest.raises(DomainError, match=str(MAX_SCAN_HI)):
            scan_exceptional(MAX_SCAN_HI - 10, MAX_SCAN_HI + 1)

    @pytest.mark.parametrize("hi,sg", [(10**6, 7747), (10**7, 56_033)])
    def test_sophie_germain_counts(self, hi, sg):
        # 1 (for n = 2) plus the Sophie Germain primes below hi (OEIS A092816)
        report = scan_exceptional(2, hi)
        assert (report.exceptional, report.sg_candidates) == (KNOWN_EXCEPTIONAL, sg)

    def test_workers_are_counted_only_when_asked_for(self, monkeypatch, fake_pool):
        def refuse():
            raise AssertionError("cpu_count called for one worker or one segment")

        monkeypatch.setattr(os, "cpu_count", refuse)
        assert scan_exceptional(2, 1000).exceptional == KNOWN_EXCEPTIONAL
        # one segment: no pool, however many workers are asked for
        assert scan_exceptional(2, 1000, True, 64).exceptional == KNOWN_EXCEPTIONAL
        assert fake_pool.sizes == []

    def test_ascending_windows_sieve_the_base_primes_once(self, monkeypatch):
        # Two windows 10^5 apart on either side of the hi at which the exact
        # bound isqrt(2 * hi) grows by one: an exact-size cache would be
        # sieved again for the second.
        monkeypatch.setattr(exceptional, "_BASE", (0, [], [], []))
        m = isqrt(2 * MAX_SCAN_HI) - 1
        edge = -(-((m + 1) ** 2) // 2)  # the least hi with isqrt(2 * hi) = m + 1
        caches = []
        for hi in (edge - 50_000, edge + 50_000):
            assert scan_exceptional(hi - 20_000, hi).exceptional == []
            caches.append(exceptional._BASE)
        assert caches[0][0] > 0
        assert caches[1] is caches[0]


class TestScanReport:
    """ScanReport is a tuple of its six fields with value semantics."""

    def test_is_a_tuple(self):
        report = ScanReport(2, 1000, 38, 8, [2, 3], 1.5)
        assert report == (2, 1000, 38, 8, [2, 3], 1.5)
        assert len(report) == 6
        lo, hi, sg, walked, found, ms = report
        assert (lo, hi, sg, walked, found, ms) == (
            report.lo, report.hi, report.sg_candidates, report.walked,
            report.exceptional, report.elapsed_ms,
        )

    def test_immutable(self):
        report = ScanReport(2, 30, 7, 0, [], 0.0)
        with pytest.raises(AttributeError):
            report.walked = 1
        with pytest.raises(AttributeError):
            report.extra = 1  # no instance __dict__

    def test_exceptional_is_a_list(self):
        assert type(scan_exceptional(2, 1000).exceptional) is list

    def test_as_dict_key_order(self):
        d = ScanReport(2, 1000, 38, 8, [2, 3], 1.5).as_dict()
        assert list(d) == ["lo", "hi", "sg_candidates", "walked", "exceptional", "elapsed_ms"]
        assert d == {
            "lo": 2, "hi": 1000, "sg_candidates": 38, "walked": 8,
            "exceptional": [2, 3], "elapsed_ms": 1.5,
        }

    def test_as_dict_copies_the_list(self):
        report = ScanReport(2, 1000, 38, 8, [2, 3], 0.0)
        report.as_dict()["exceptional"].append(4)
        assert report.exceptional == [2, 3]

    def test_equality_and_repr(self):
        assert ScanReport(2, 30, 7, 0, [], 0.0) == ScanReport(2, 30, 7, 0, [], 0.0)
        assert ScanReport(2, 30, 7, 0, [], 0.0) != ScanReport(2, 30, 8, 0, [], 0.0)
        assert repr(ScanReport(2, 30, 7, 0, [2], 0.0)) == (
            "ScanReport(lo=2, hi=30, sg_candidates=7, walked=0, exceptional=[2], elapsed_ms=0.0)"
        )


def per_n(lo, hi):
    """The exceptional n in [lo, hi] and the Sophie Germain count, n by n.

    Every hit the walk returns must be a genuine non-basic solution for n.
    """
    found = []
    for n in range(lo, hi + 1):
        hit = find_first_nonbasic(n)
        if hit is None:
            found.append(n)
        else:
            assert validate(hit) and hit.n == n and not is_basic(hit), (n, hit)
    sg = sum(1 for n in range(lo, hi + 1) if n == 2 or is_sophie_germain(n - 1))
    return found, sg


def scanned(lo, hi, use_sg_filter=True):
    report = scan_exceptional(lo, hi, use_sg_filter)
    return report.exceptional, report.sg_candidates


class TestSieve:
    """`_sieve` against `is_prime`, k by k."""

    @staticmethod
    def assert_flags_are_primality(k0, size):
        ks = range(k0, k0 + size)
        expected = [is_prime(6 * k - 1) and is_prime(12 * k - 1) for k in ks]
        assert list(exceptional._sieve(k0, size)) == expected, (k0, size)

    # k0 = 1 ... 3: the window holds base primes, which each pass clears as
    # their own multiples and then restores where they were set before;
    # size 1 leaves every base prime to the one-hit loop, size 3000 sends the
    # primes below 1000 to the slice loop.  In a window of size q, q + 1, 2q,
    # 2q + 1, 3q and 3q + 1 the base prime q has 1, 1-2, 2, 2-3, 3 and 3-4
    # hits: it moves from the one-hit loop to the few-hit loop, and at 3q + 1
    # to the slice loop.  At k0 = 1 and 2, 5 and 11 are themselves 6k-1 or
    # 12k-1 and are restored through each loop; at k0 = 3, 17 is, in the
    # windows of size 51 and 52
    @pytest.mark.parametrize(
        "k0,size",
        [(1, 1), (1, 2), (1, 40), (1, 3000), (2, 7), (3, 500), (5_000_000, 1), (5_000_000, 3000)]
        + sorted(
            {
                (k0, m * q + extra)
                for k0, q in [(1, 5), (1, 11), (2, 11), (3, 13), (3, 17), (5_000_000, 997)]
                for m in (1, 2, 3)
                for extra in (0, 1)
            }
        ),
    )
    def test_examples(self, k0, size):
        self.assert_flags_are_primality(k0, size)

    @pytest.mark.parametrize("m", [4, 5, 100, 10**4])
    @pytest.mark.parametrize("grown", [False, True])
    def test_base_primes(self, monkeypatch, m, grown):
        # every prime 5 <= q up to the cache's limit, ascending, with the k
        # at which q divides 6k-1 and 12k-1; a smaller m reads the same cache
        monkeypatch.setattr(exceptional, "_BASE", (0, [], [], []))
        if grown:
            exceptional._base_primes(m // 3)
        qs, r6, r12 = exceptional._base_primes(m)
        cache = exceptional._BASE
        limit = cache[0]
        assert limit >= m
        assert cache[1:] == (qs, r6, r12)
        assert qs == [q for q in range(5, limit + 1) if is_prime(q)]
        for q, a, b in zip(qs, r6, r12, strict=True):
            assert 0 < a < q and 6 * a % q == 1, q
            assert 0 < b < q and 12 * b % q == 1, q
        for smaller in (m, m // 2, 0):
            parts = zip(exceptional._base_primes(smaller), cache[1:], strict=True)
            assert all(mine is part for mine, part in parts)
            assert exceptional._BASE is cache

    def test_restores_a_base_prime_only_where_it_was_set(self):
        # k = 1: 5 and 11 are prime.  k = 6: 71 = 12*6 - 1 is a base prime,
        # cleared as its own multiple, but 35 = 6*6 - 1 is composite
        flags = exceptional._sieve(1, 500)
        assert (flags[0], flags[5]) == (1, 0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.integers(min_value=1, max_value=300),
            st.integers(min_value=1, max_value=10**10),
        ),
        st.integers(min_value=1, max_value=3000),
    )
    def test_random_windows(self, k0, size):
        self.assert_flags_are_primality(k0, size)


class TestPlan:
    """The plan of a scan (SEGMENT, MAX_STEP, the workers) changes its work,
    never its answer; and of its work, only MAX_STEP changes `walked`."""

    @staticmethod
    def rows(max_step):
        # every row of `_rows(max_step)` as (step, first k): the sliced ones,
        # then those read off the sparse lookup tables
        dense, sparse, _ = exceptional._rows(max_step)
        looked_up = [(step, first) for step, table in sparse for first in table if first]
        return dense + looked_up

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.one_of(
            st.integers(min_value=2, max_value=300_000),
            st.integers(min_value=10**9, max_value=10**10),
        ),
        st.integers(min_value=0, max_value=3000),
        st.sampled_from([7, 1000, 1 << 22]),
        st.sampled_from([0, 7, 128, 512]),
        st.sampled_from([1, 2]),
    )
    def test_answer_does_not_depend_on_the_plan(
        self, monkeypatch, fake_pool, lo, width, segment, max_step, workers
    ):
        # high windows are kept narrow: a 7-wide segment sieves on its own
        hi = lo + (width if lo < 10**6 else width // 10)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with monkeypatch.context() as plan:
            plan.setattr(exceptional, "MAX_STEP", max_step)
            plain = scan_exceptional(lo, hi)
            plan.setattr(exceptional, "SEGMENT", segment)
            planned = scan_exceptional(lo, hi, workers=workers)
        expected = per_n(lo, hi)
        assert (plain.exceptional, plain.sg_candidates) == expected
        assert (planned.exceptional, planned.sg_candidates) == expected
        assert planned.walked == plain.walked

    def test_table_follows_max_step(self, monkeypatch):
        # the rows are cached by their bound, so a patched MAX_STEP needs no reset
        scan_exceptional(2, 1000)
        rows, bounds = exceptional._rows, []
        monkeypatch.setattr(exceptional, "_rows", lambda bound: bounds.append(bound) or rows(bound))
        monkeypatch.setattr(exceptional, "MAX_STEP", 7)
        assert scan_exceptional(2, 1000).exceptional == KNOWN_EXCEPTIONAL
        assert set(bounds) == {7}
        # (2, 3) gives n = 18 + 30j, (2, 2, 2) n = 12 + 42j and (2, 4) n = 60 + 42j
        # and, for lookups, the first k of each by step and class k mod step
        five, seven = [0, 0, 0, 3, 0], [0, 0, 2, 10, 0, 0, 0]
        assert rows(7) == ([(5, 3), (7, 2), (7, 10)], [], [(5, five), (7, seven)])

    # `use_sg_filter`, here and below, is passed both ways to show that the
    # scan ignores it
    @pytest.mark.parametrize("use_sg_filter", [True, False])
    def test_a_scan_of_no_6k_builds_no_rows(self, monkeypatch, use_sg_filter):
        # [7, 11] holds no n = 6k, and [2, 5] only n = 2, 3, 4, which are
        # decided apart from the rows
        bounds = []
        monkeypatch.setattr(exceptional, "_rows", bounds.append)
        for lo, hi, expected in [(7, 11, ([], 0, 0)), (2, 5, ([2, 3, 4], 3, 3))]:
            report = scan_exceptional(lo, hi, use_sg_filter)
            assert (report.exceptional, report.sg_candidates, report.walked) == expected
        assert bounds == []

    @pytest.mark.parametrize("max_step", [131, 512, 1024])
    def test_rows_clear_every_live_k_a_progression_hits(self, max_step):
        # the progressions, the rows, the dense rows and the largest first k
        progression_count, row_count, dense_count, last_first = {
            131: (384, 187, 177, 1_452),
            512: (2_574, 1_145, 193, 21_675),
            1024: (6_555, 2_726, 193, 87_721),
        }[max_step]
        # every (prefix, x) with r >= 3 and d = p*x - 1 <= max_step, as (d, n0)
        progressions = []

        def grow(prefix, p):
            for x in range(prefix[-1], (max_step + 1) // p + 1):
                r = len(prefix) + 2
                progressions.append((p * x - 1, p * x * x - sum(prefix) - 2 * x + r))
                grow(prefix + (x,), p * x)

        for c in range(2, max_step + 2):
            grow((c,), c)
        assert len(progressions) == progression_count
        steps, firsts = zip(*self.rows(max_step))
        assert len(steps) == row_count
        assert len(exceptional._rows(max_step)[0]) == dense_count
        # the first window reaches past the last row's start
        assert max(firsts) == last_first
        for k0, size in [(1, last_first + 1_000), (10**9, 300)]:
            # hit_n[i]: some progression holds n = 6*k0 + i; hit_k[i]: some row holds k0 + i
            hit_n, hit_k = bytearray(6 * size), bytearray(size)
            for d, n0 in progressions:
                i = max(n0 - 6 * k0, (n0 - 6 * k0) % d)
                hit_n[i::d] = b"\x01" * len(range(i, 6 * size, d))
            for step, first in zip(steps, firsts):
                i = max(first - k0, (first - k0) % step)
                hit_k[i::step] = b"\x01" * len(range(i, size, step))
            live = [i for i in range(size) if is_prime(6 * (k0 + i) - 1)]
            assert [i for i in live if hit_n[6 * i]] == [i for i in live if hit_k[i]], k0
        # no kept row holds no live k, or lies inside another kept row
        row = {(step, first % step): first for step, first in zip(steps, firsts)}
        for step, first in zip(steps, firsts):
            assert not 1 < gcd(6 * first - 1, step) < 6 * first - 1, (step, first)
            for t in range(1, step):
                if step % t == 0:
                    assert row.get((t, first % t), first + 1) > first, (step, first, t)

    # sha256 of the three parts, the tables as lists: pins every row, its
    # place and the order of the parts, up to a bound no scan uses today
    @pytest.mark.parametrize("bound", [512, 1024, 2048])
    def test_rows_match_their_pinned_digest(self, bound):
        digest = {
            512: "9e3c0b7fcb811c1672654ecc0de2f886b6c712bab244835babd29b550e011ca7",
            1024: "5c6fef8048db560db7e6a1cd6326a047a8cb75a60868a5de4f333e559cb58106",
            2048: "5f5223d94b4500950562d8fe0bcf2ae0dbed2f6d53ad87557513a4a4a02e3be5",
        }[bound]
        dense, sparse, every = exceptional._rows.__wrapped__(bound)  # not kept in the cache
        tables = [[(t, list(table)) for t, table in part] for part in (sparse, every)]
        assert hashlib.sha256(repr((dense, *tables)).encode()).hexdigest() == digest
        tail = every[len(every) - len(sparse) :]
        assert all(mine is table for (_, mine), (_, table) in zip(tail, sparse, strict=True))

    def test_rows_build_without_factoring(self, monkeypatch):
        # the inner rows come from the multiples of each step, not from the
        # solver's factoring of each step
        calls = []

        def recorder(name, real):
            return lambda *args: calls.append(name) or real(*args)

        for name in ("_prime_factors", "_divisors"):
            monkeypatch.setattr(solver, name, recorder(name, getattr(solver, name)))
        for bound in (512, 1024):
            exceptional._rows.__wrapped__(bound)  # built fresh, not from the cache
        assert calls == []

    # 131 is the least bound that looks a row up: step 131 alone
    @pytest.mark.parametrize("bound", [0, 7, 128, 130, 131, 250, 512, 1024])
    def test_lookup_holds_the_sparse_rows(self, bound):
        # the rows up to DENSE_STEP as pairs, by step and then by class;
        # every row of larger step once, in its class, with its first k; and
        # `every` row once more, the dense steps first, then the very sparse
        # tables
        dense_step = exceptional.DENSE_STEP
        dense, sparse, every = exceptional._rows(bound)
        steps = [step for step, _ in dense]
        assert dense == sorted(dense, key=lambda row: (row[0], row[1] % row[0]))
        assert all(step <= dense_step for step in steps)
        sparse_steps = [step for step, _ in sparse]
        assert sparse_steps == sorted(set(sparse_steps))
        assert all(step > dense_step for step in sparse_steps)
        assert [len(table) for _, table in sparse] == sparse_steps
        assert (sparse_steps == []) == (bound <= 130)
        assert [len(table) for _, table in every] == [step for step, _ in every]
        split = len(every) - len(sparse)
        pairs = zip(every[split:], sparse, strict=True)
        assert all(mine is table for (_, mine), (_, table) in pairs)
        dense_steps = [step for step, _ in every[:split]]
        assert dense_steps == sorted(set(steps))
        looked_up = [
            (step, res, first) for step, table in every for res, first in enumerate(table) if first
        ]
        assert all(first % step == res for step, res, first in looked_up)
        sparse_rows = [(step, first) for step, table in sparse for first in table if first]
        assert len(set(dense + sparse_rows)) == len(dense) + len(sparse_rows)
        every_rows = sorted((step, first) for step, _, first in looked_up)
        assert every_rows == sorted(dense + sparse_rows)
        if bound == 131:
            assert sparse_steps == [131]
        if bound == exceptional.MAX_STEP:
            assert (len(dense), len(sparse_rows), len(looked_up)) == (193, 952, 1145)
            assert (len(sparse_steps), sum(sparse_steps)) == (101, 31_799)
            # the dense lookup tables: 39 steps, 2 535 entries
            assert (len(dense_steps), sum(dense_steps)) == (39, 2_535)

    # 131 is the least bound with a looked-up row: step 131 alone
    @pytest.mark.parametrize("max_step", [7, 128, 131, 250, 512])
    @pytest.mark.parametrize("use_sg_filter", [True, False])
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.integers(min_value=1, max_value=30_000),
            st.integers(min_value=10**9 - 10**4, max_value=10**9 + 10**4),
        ),
        st.integers(min_value=1, max_value=500),
    )
    @example(k0=1, size=500)
    @example(k0=10**9, size=500)
    def test_segment_against_rows_k_by_k(self, max_step, use_sg_filter, k0, size):
        # the rows sliced and the rows looked up clear the k that some row of
        # `_rows(MAX_STEP)` holds, from its first k on, and no other
        rows = self.rows(max_step)
        left, sg = [], 0
        for k in range(k0, k0 + size):
            live = is_prime(6 * k - 1) and is_prime(12 * k - 1)
            sg += live
            held = any(k >= first and (k - first) % step == 0 for step, first in rows)
            if live and not held:
                left.append(6 * k)
        expected = ([n for n in left if find_first_nonbasic(n) is None], sg, len(left))
        # the rule's own choice, then each way of applying the dense rows
        rules = [exceptional._few_live, lambda *args: False, lambda *args: True]
        with pytest.MonkeyPatch.context() as plan:
            plan.setattr(exceptional, "MAX_STEP", max_step)
            for way, rule in enumerate(rules):
                plan.setattr(exceptional, "_few_live", rule)
                assert exceptional._scan_segment((k0, size)) == expected, way
            # the scan of the segment's n is that one segment, whatever the flag
            report = scan_exceptional(6 * k0, 6 * (k0 + size) - 1, use_sg_filter)
        assert (report.exceptional, report.sg_candidates, report.walked) == expected

    # One choice a segment.  The 501 k of a 3000-wide window at 3*10^7 hold
    # 14 live k, fewer than the 193 dense rows.  The other windows span more
    # than 64 k a dense row, 12 352 k, and are sliced whatever they hold:
    # the 16 666 k of [2, 10^5], a full segment at 10^12, and the 16 667 k
    # of [10^12 - 10^5, 10^12], although these hold only 149 live k.
    @pytest.mark.parametrize(
        "lo,hi,looked_up",
        [
            (30_000_000, 30_003_000, [True]),
            (2, 10**5, [False]),
            (MAX_SCAN_HI - 6 * exceptional.SEGMENT + 1, MAX_SCAN_HI, [False]),
            (MAX_SCAN_HI - 10**5, MAX_SCAN_HI, [False]),
        ],
    )
    def test_which_segments_look_up_the_dense_rows(self, monkeypatch, lo, hi, looked_up):
        rule, ways = exceptional._few_live, []

        def recorded(*args):
            ways.append(rule(*args))
            return ways[-1]

        monkeypatch.setattr(exceptional, "_few_live", recorded)
        scan_exceptional(lo, hi)
        assert ways == looked_up


class TestSieveAgainstWalk:
    """The segmented sieve against `find_first_nonbasic` run on every n."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=200_000),
        st.integers(min_value=0, max_value=800),
    )
    def test_random_windows(self, lo, width):
        assert scanned(lo, lo + width) == per_n(lo, lo + width)

    @pytest.mark.parametrize(
        "lo,hi", [(2, 2), (3, 3), (444, 444), (445, 445), (2, 700), (99_990, 100_300)]
    )
    @pytest.mark.parametrize("use_sg_filter", [True, False])
    def test_small_segments(self, monkeypatch, lo, hi, use_sg_filter):
        monkeypatch.setattr(exceptional, "SEGMENT", 7)
        assert scanned(lo, hi, use_sg_filter) == per_n(lo, hi)

    @pytest.mark.parametrize("lo", [29_998_000, 30_000_000, 30_517_000])
    def test_windows_near_3e7(self, lo):
        assert scanned(lo, lo + 3000) == per_n(lo, lo + 3000)

    @pytest.mark.parametrize("use_sg_filter", [True, False])
    def test_every_range_to_60(self, use_sg_filter):
        exceptional_n = [n for n in range(2, 61) if find_first_nonbasic(n) is None]
        germain_n = [n for n in range(2, 61) if n == 2 or is_sophie_germain(n - 1)]
        for lo in range(2, 61):
            for hi in range(lo, 61):
                expected = [n for n in exceptional_n if lo <= n <= hi]
                sg = sum(1 for n in germain_n if lo <= n <= hi)
                assert scanned(lo, hi, use_sg_filter) == (expected, sg), (lo, hi)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=10**9, max_value=MAX_SCAN_HI - 300),
        st.integers(min_value=0, max_value=300),
    )
    def test_high_windows(self, lo, width):
        # No exceptional value is known above 444; the Sophie Germain count
        # comes from the primality test, not from the sieve.
        sg = sum(1 for n in range(lo, lo + width + 1) if is_sophie_germain(n - 1))
        assert scanned(lo, lo + width) == ([], sg)

    @pytest.mark.parametrize(
        "lo,hi,sg",
        [
            (999_999_996_999, 999_999_999_999, 4),
            (5 * 10**11, 5 * 10**11 + 3000, 8),
            (10**9, 10**9 + 3000, 5),
        ],
    )
    def test_high_windows_pinned(self, lo, hi, sg):
        assert scanned(lo, hi) == ([], sg)

    # each range but [2, 3] holds at least two segments of 7 k; [2, 3] holds
    # no n = 6k, so no segment, and no pool starts
    @pytest.mark.parametrize(
        "lo,hi", [(2, 3), (2, 50), (2, 5000), (400, 470), (10**6, 10**6 + 2000)]
    )
    @pytest.mark.parametrize("use_sg_filter", [True, False])
    def test_two_workers_match_one(self, monkeypatch, fake_pool, lo, hi, use_sg_filter):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(exceptional, "SEGMENT", 7)
        pooled = scan_exceptional(lo, hi, use_sg_filter, workers=2)
        assert fake_pool.sizes == ([] if hi < 6 else [2])
        solo = scan_exceptional(lo, hi, use_sg_filter, workers=1)
        assert (pooled.exceptional, pooled.sg_candidates, pooled.walked) == (
            solo.exceptional,
            solo.sg_candidates,
            solo.walked,
        )
