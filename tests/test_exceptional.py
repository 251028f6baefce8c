import concurrent.futures
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import FakePool
from test_solver import refuse_the_reference

from espsolver import exceptional
from espsolver.core import DomainError, Solution, is_basic
from espsolver.exceptional import (
    MAX_SCAN_HI,
    find_first_nonbasic,
    is_exceptional,
    is_sophie_germain,
    scan_exceptional,
)
from espsolver.reference import MemoStore, calc_shell, reference_solution
from espsolver.solver import calc_solution, walk_shell

KNOWN_EXCEPTIONAL = [2, 3, 4, 6, 24, 114, 174, 444]


class TestSophieGermain:
    @pytest.mark.parametrize(
        "p,expected",
        [(5, True), (7, False), (443, True), (2, True), (3, True), (1, False)],
    )
    def test_examples(self, p, expected):
        assert is_sophie_germain(p) == expected


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

    def test_short_circuits_on_composite_n_minus_1(self, monkeypatch):
        # n-1 is composite, so S_2(n) already has a second element and no
        # higher shell may be walked.
        walked_r = []

        def recording_walk(n, r):
            walked_r.append(r)
            return walk_shell(n, r)

        monkeypatch.setattr(exceptional, "walk_shell", recording_walk)
        for n in (16, 10**12):
            walked_r.clear()
            assert find_first_nonbasic(n) is not None
            assert walked_r == [2], n

    def test_second_member_of_s2_near_the_limit(self):
        # 10^12 - 1 = 3 * 333333333333: the smallest divisor above 1 is 3
        assert find_first_nonbasic(10**12) == Solution((4, 333333333334), 10**12 - 2)

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

    def test_independent_of_the_reference(self, monkeypatch):
        refuse_the_reference(monkeypatch)
        assert [n for n in range(2, 3001) if is_exceptional(n)] == KNOWN_EXCEPTIONAL
        for use_sg_filter in (True, False):
            report = scan_exceptional(2, 2000, use_sg_filter)
            assert report.exceptional == KNOWN_EXCEPTIONAL


class TestScan:
    def test_known_set_to_1000(self):
        report = scan_exceptional(2, 1000, use_sg_filter=True)
        assert report.exceptional == KNOWN_EXCEPTIONAL

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

    def test_workers_match_single(self):
        solo = scan_exceptional(2, 500, use_sg_filter=True, workers=1)
        multi = scan_exceptional(2, 500, use_sg_filter=True, workers=3)
        assert solo.exceptional == multi.exceptional
        assert solo.sg_candidates == multi.sg_candidates

    def test_theorem_soundness_sample(self):
        report = scan_exceptional(2, 5000, use_sg_filter=False)
        for n in report.exceptional:
            if n > 2:
                assert is_sophie_germain(n - 1)

    def test_walked_pinned(self):
        # Below 1000 the sieve leaves only the exceptional values to the walk.
        report = scan_exceptional(2, 1000)
        assert report.walked == 8
        assert report.as_dict()["walked"] == 8
        # Above that the filter leaves fewer n to walk than n-1 prime alone.
        assert scan_exceptional(2, 100_000, use_sg_filter=True).walked == 25
        assert scan_exceptional(2, 100_000, use_sg_filter=False).walked == 31

    def test_domain_limit(self):
        assert scan_exceptional(MAX_SCAN_HI, MAX_SCAN_HI).exceptional == []
        with pytest.raises(DomainError, match=str(MAX_SCAN_HI)):
            scan_exceptional(MAX_SCAN_HI - 10, MAX_SCAN_HI + 1)


def per_n(lo, hi):
    """The exceptional n in [lo, hi] and the Sophie Germain count, n by n."""
    found = [n for n in range(lo, hi + 1) if find_first_nonbasic(n) is None]
    sg = sum(1 for n in range(lo, hi + 1) if n == 2 or is_sophie_germain(n - 1))
    return found, sg


def scanned(lo, hi, use_sg_filter):
    report = scan_exceptional(lo, hi, use_sg_filter)
    return report.exceptional, report.sg_candidates


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
        "lo,hi,sg,walked_filtered,walked_unfiltered",
        [
            (999_999_996_999, 999_999_999_999, 4, 0, 2),
            (5 * 10**11, 5 * 10**11 + 3000, 8, 0, 0),
            (10**9, 10**9 + 3000, 5, 1, 1),
        ],
    )
    def test_high_windows_pinned(self, lo, hi, sg, walked_filtered, walked_unfiltered):
        filtered = scan_exceptional(lo, hi, use_sg_filter=True)
        unfiltered = scan_exceptional(lo, hi, use_sg_filter=False)
        assert filtered.exceptional == unfiltered.exceptional == []
        assert filtered.sg_candidates == unfiltered.sg_candidates == sg
        assert (filtered.walked, unfiltered.walked) == (walked_filtered, walked_unfiltered)

    @pytest.mark.parametrize("lo,hi", [(2, 3), (2, 5000), (400, 470), (10**6, 10**6 + 2000)])
    @pytest.mark.parametrize("use_sg_filter", [True, False])
    def test_two_workers_match_one(self, monkeypatch, lo, hi, use_sg_filter):
        FakePool.sizes = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(exceptional, "SEGMENT", 1000)
        pooled = scan_exceptional(lo, hi, use_sg_filter, workers=2)
        assert FakePool.sizes == [2]
        solo = scan_exceptional(lo, hi, use_sg_filter, workers=1)
        assert (pooled.exceptional, pooled.sg_candidates, pooled.walked) == (
            solo.exceptional,
            solo.sg_candidates,
            solo.walked,
        )
