import os
from array import array
from math import gcd, isqrt

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from espsolver import exceptional
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
from espsolver.solver import calc_solution, walk_shells

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
        for use_sg_filter in (True, False):
            report = scan_exceptional(2, 2000, use_sg_filter)
            assert report.exceptional == KNOWN_EXCEPTIONAL


class TestScan:
    def test_empty_window(self):
        assert scan_exceptional(7, 23, use_sg_filter=True).exceptional == []

    def test_filter_independence(self):
        with_filter = scan_exceptional(2, 2000, use_sg_filter=True)
        without = scan_exceptional(2, 2000, use_sg_filter=False)
        assert with_filter.exceptional == without.exceptional == KNOWN_EXCEPTIONAL
        # candidate accounting is the SG count in both modes
        assert with_filter.sg_candidates == without.sg_candidates

    def test_report_fields(self):
        report = scan_exceptional(2, 30, use_sg_filter=True)
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
        solo = scan_exceptional(2, 500, use_sg_filter=True, workers=1)
        multi = scan_exceptional(2, 500, use_sg_filter=True, workers=3)
        assert solo.exceptional == multi.exceptional
        assert solo.sg_candidates == multi.sg_candidates

    def test_theorem_soundness_sample(self):
        report = scan_exceptional(2, 5000, use_sg_filter=False)
        for n in report.exceptional:
            if n > 2:
                assert is_sophie_germain(n - 1)

    # `walked` counts the plan's work, not the answer, so every pin of it is
    # here and moves with the plan.  It depends on the rows' bound MAX_STEP
    # and the filter, not on the window's width, SEGMENT or the workers.  Up
    # to 10^5 the progressions leave only the exceptional values to the walk;
    # above that the filter leaves fewer n to walk than n-1 prime alone.
    @pytest.mark.parametrize(
        "lo,hi,walked_filtered,walked_unfiltered",
        [
            (2, 1000, 8, 8),
            (2, 10**5, 8, 8),
            (999_999_996_999, 999_999_999_999, 0, 0),
            (5 * 10**11, 5 * 10**11 + 3000, 0, 0),
            (10**9, 10**9 + 3000, 1, 1),
            (10**9, 10**9 + 9000, 1, 1),
            (3 * 10**7, 3 * 10**7 + 6000, 0, 0),
        ],
    )
    def test_walked_per_window(self, lo, hi, walked_filtered, walked_unfiltered):
        assert scan_exceptional(lo, hi, use_sg_filter=True).walked == walked_filtered
        assert scan_exceptional(lo, hi, use_sg_filter=False).walked == walked_unfiltered

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
        for use_sg_filter in (True, False):
            whole = scan_exceptional(lo, hi, use_sg_filter).walked
            parts = [scan_exceptional(*part, use_sg_filter) for part in ((lo, mid), (mid + 1, hi))]
            assert whole == sum(part.walked for part in parts), (lo, mid, hi, use_sg_filter)

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
        monkeypatch.setattr(exceptional, "_BASE", (0, array("i"), array("i"), array("i")))
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


def scanned(lo, hi, use_sg_filter):
    report = scan_exceptional(lo, hi, use_sg_filter)
    return report.exceptional, report.sg_candidates


class TestSieve:
    """`_sieve` against `is_prime`, k by k."""

    @staticmethod
    def assert_flags_are_primality(k0, size):
        live, germain = exceptional._sieve(k0, size)
        ks = range(k0, k0 + size)
        assert list(live) == [is_prime(6 * k - 1) for k in ks], (k0, size)
        expected = [is_prime(6 * k - 1) and is_prime(12 * k - 1) for k in ks]
        assert list(germain) == expected, (k0, size)

    # k0 = 1 ... 3: the window holds base primes, which each form clears as
    # their own multiples and then restores where they were set before;
    # size 1 leaves every base prime to the one-hit loop, size 3000 sends the
    # primes below 3000 to the slice loop
    @pytest.mark.parametrize(
        "k0,size",
        [(1, 1), (1, 2), (1, 40), (1, 3000), (2, 7), (3, 500), (5_000_000, 1), (5_000_000, 3000)],
    )
    def test_examples(self, k0, size):
        self.assert_flags_are_primality(k0, size)

    def test_restores_a_base_prime_only_where_it_was_set(self):
        # k = 1: 5 and 11 are prime.  k = 6: 71 = 12*6 - 1 is a base prime,
        # cleared as its own multiple, but 35 = 6*6 - 1 is composite
        _, germain = exceptional._sieve(1, 500)
        assert (germain[0], germain[5]) == (1, 0)

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
    never its answer; and of its work, only MAX_STEP and the filter change
    `walked`."""

    @staticmethod
    def rows(max_step):
        # every row of `_rows(max_step)` as (step, first k): the sliced ones,
        # then those read off the lookup arrays
        steps, firsts, sparse = exceptional._rows(max_step)
        looked_up = [(step, first) for step, table in sparse for first in table if first]
        return list(zip(steps, firsts)) + looked_up

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
        st.booleans(),
    )
    def test_answer_does_not_depend_on_the_plan(
        self, monkeypatch, fake_pool, lo, width, segment, max_step, workers, use_sg_filter
    ):
        # high windows are kept narrow: a 7-wide segment sieves on its own
        hi = lo + (width if lo < 10**6 else width // 10)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with monkeypatch.context() as plan:
            plan.setattr(exceptional, "MAX_STEP", max_step)
            plain = scan_exceptional(lo, hi, use_sg_filter)
            plan.setattr(exceptional, "SEGMENT", segment)
            planned = scan_exceptional(lo, hi, use_sg_filter, workers)
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
        assert rows(7) == (array("q", [5, 7, 7]), array("q", [3, 2, 10]), [])

    def test_rows_clear_every_live_k_a_progression_hits(self):
        max_step = exceptional.MAX_STEP
        # every (prefix, x) with r >= 3 and d = p*x - 1 <= max_step, as (d, n0)
        progressions = []

        def grow(prefix, p):
            for x in range(prefix[-1], (max_step + 1) // p + 1):
                r = len(prefix) + 2
                progressions.append((p * x - 1, p * x * x - sum(prefix) - 2 * x + r))
                grow(prefix + (x,), p * x)

        for c in range(2, max_step + 2):
            grow((c,), c)
        assert len(progressions) == 2574
        steps, firsts = zip(*self.rows(max_step))
        assert len(steps) == 1145
        assert len(exceptional._rows(max_step)[0]) == 193
        # the rows' starts all lie in the first window
        assert max(firsts) <= 25_000
        for k0, size in [(1, 25_000), (10**9, 300)]:
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

    def test_lookup_holds_the_sparse_rows(self):
        # the rows up to DENSE_STEP in the columns, sorted by step; every row
        # of larger step once, in its class, with its first k
        max_step, dense = exceptional.MAX_STEP, exceptional.DENSE_STEP
        steps, firsts, sparse = exceptional._rows(max_step)
        assert list(steps) == sorted(steps) and steps[-1] <= dense
        sparse_steps, tables = [step for step, _ in sparse], [table for _, table in sparse]
        assert sparse_steps == sorted(set(sparse_steps)) and sparse_steps[0] > dense
        assert [len(table) for table in tables] == sparse_steps
        rows = [
            (step, res, first)
            for step, table in zip(sparse_steps, tables)
            for res, first in enumerate(table)
            if first
        ]
        assert all(first % step == res for step, res, first in rows)
        assert (len(sparse_steps), len(rows), sum(sparse_steps)) == (101, 952, 31_799)
        # a bound at or below DENSE_STEP leaves every row to the slices, and
        # 131 is the least bound that looks one up
        for bound in (0, 7, 128, 130):
            assert exceptional._rows(bound)[2] == []
        assert [step for step, _ in exceptional._rows(131)[2]] == [131]

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
            live, germain = is_prime(6 * k - 1), is_prime(12 * k - 1)
            sg += live and germain
            held = any(k >= first and (k - first) % step == 0 for step, first in rows)
            if live and (germain or not use_sg_filter) and not held:
                left.append(6 * k)
        expected = ([n for n in left if find_first_nonbasic(n) is None], sg, len(left))
        with pytest.MonkeyPatch.context() as plan:
            plan.setattr(exceptional, "MAX_STEP", max_step)
            assert exceptional._scan_segment((k0, size), use_sg_filter) == expected


class TestSieveAgainstWalk:
    """The segmented sieve against `find_first_nonbasic` run on every n."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=200_000),
        st.integers(min_value=0, max_value=800),
        st.booleans(),
    )
    def test_random_windows(self, lo, width, use_sg_filter):
        assert scanned(lo, lo + width, use_sg_filter) == per_n(lo, lo + width)

    @pytest.mark.parametrize(
        "lo,hi", [(2, 2), (3, 3), (444, 444), (445, 445), (2, 700), (99_990, 100_300)]
    )
    @pytest.mark.parametrize("use_sg_filter", [True, False])
    def test_small_segments(self, monkeypatch, lo, hi, use_sg_filter):
        monkeypatch.setattr(exceptional, "SEGMENT", 7)
        assert scanned(lo, hi, use_sg_filter) == per_n(lo, hi)

    @pytest.mark.parametrize("lo", [29_998_000, 30_000_000, 30_517_000])
    def test_windows_near_3e7(self, lo):
        expected = per_n(lo, lo + 3000)
        assert scanned(lo, lo + 3000, True) == scanned(lo, lo + 3000, False) == expected

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
        st.booleans(),
    )
    def test_high_windows(self, lo, width, use_sg_filter):
        # No exceptional value is known above 444; the Sophie Germain count
        # comes from the primality test, not from the sieve.
        sg = sum(1 for n in range(lo, lo + width + 1) if is_sophie_germain(n - 1))
        assert scanned(lo, lo + width, use_sg_filter) == ([], sg)

    @pytest.mark.parametrize(
        "lo,hi,sg",
        [
            (999_999_996_999, 999_999_999_999, 4),
            (5 * 10**11, 5 * 10**11 + 3000, 8),
            (10**9, 10**9 + 3000, 5),
        ],
    )
    def test_high_windows_pinned(self, lo, hi, sg):
        filtered = scan_exceptional(lo, hi, use_sg_filter=True)
        unfiltered = scan_exceptional(lo, hi, use_sg_filter=False)
        assert filtered.exceptional == unfiltered.exceptional == []
        assert filtered.sg_candidates == unfiltered.sg_candidates == sg

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
