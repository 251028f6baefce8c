import gc
import random
import tracemalloc
from itertools import count, islice
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from espsolver import exceptional, solver
from espsolver.core import DomainError, Solution, common_value, is_basic, validate
from espsolver.exceptional import find_first_nonbasic
from espsolver.oracle import brute_force_solutions, exhaustive_tiny_solutions
from espsolver.reference import MemoStore, SolutionKey, SolutionSet, build_s2, reference_solution
from espsolver.solver import (
    BLOCK,
    MAX_SCAN_HI,
    MAX_SOLVE_N,
    _divisors,
    _prime_factors,
    _solve_block,
    calc_solution,
    is_prime,
    walk_shells,
)


class TestCalcSolution:
    def test_n15(self):
        assert calc_solution(15) == {Solution((2, 15), 13), Solution((3, 8), 13)}

    def test_n2(self):
        assert calc_solution(2) == {Solution((2, 2), 0)}

    def test_n5(self):
        assert calc_solution(5) == {
            Solution((2, 5), 3),
            Solution((3, 3), 3),
            Solution((2, 2, 2), 2),
        }

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            calc_solution(1)

    def test_basic_solution_always_present(self):
        memo = MemoStore()
        for n in range(2, 501):
            sols = calc_solution(n, memo)
            assert Solution(tuple(sorted((2, n))), n - 2) in sols, n

    def test_all_solutions_validate_with_value_bound(self):
        memo = MemoStore()
        for n in range(2, 501):
            for s in calc_solution(n, memo):
                assert validate(s)
                cv = common_value(s)
                assert cv <= 2 * n
                assert (cv == 2 * n) == is_basic(s)

    def test_rejects_n_above_limit(self):
        with pytest.raises(DomainError):
            calc_solution(MAX_SOLVE_N + 1)

    def test_independent_of_the_reference(self, refuse_the_reference):
        for n in range(2, 65):
            assert calc_solution(n) == brute_force_solutions(n), n


class TestIsPrime:
    @pytest.mark.parametrize(
        "m,expected",
        [
            (2, True),
            (561, False),  # Carmichael number
            (2**31 - 1, True),
            (2**61 - 1, True),
            (2**64 - 59, True),  # largest prime below 2^64
            (2**64 - 1, False),
            (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
            # the least strong pseudoprimes to the first 1, 2 and 3 prime bases
            (2047, False),
            (1373653, False),
            (25326001, False),
            # the least strong pseudoprimes to the first 5, 6, 7 and 9 prime
            # bases
            (2152302898747, False),
            (3474749660383, False),
            (341550071728321, False),
            (3825123056546413051, False),
        ],
    )
    def test_known_values(self, m, expected):
        assert is_prime(m) == expected

    def test_one_not_prime(self):
        assert not is_prime(1)

    def test_witness_bound(self):
        # psi_12, the least strong pseudoprime to the 12 bases up to 37, is
        # composite and passes them all, and base 41 shows it composite
        psi12 = 318_665_857_834_031_151_167_461
        assert psi12 == 399_165_290_221 * 798_330_580_441
        assert is_prime(psi12)
        d, s = psi12 - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        powers = [pow(41, d << j, psi12) for j in range(s)]
        assert powers[0] != 1 and psi12 - 1 not in powers

    def test_113(self):
        assert is_prime(113)

    def test_887(self):
        assert is_prime(887)

    def test_agrees_with_trial_division(self):
        for m in range(0, 10_000):
            naive = m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))
            assert is_prime(m) == naive, m


class TestWalkShell:
    @pytest.mark.parametrize(
        "n,r,expected",
        [
            (5, 3, [Solution((2, 2, 2), 2)]),
            (12, 4, [Solution((2, 2, 2, 2), 8)]),
            (15, 3, []),
            (4, 3, []),
            (2, 3, []),
        ],
    )
    def test_golden_shells(self, n, r, expected):
        assert walk_shells(n, r, r) == expected

    def test_rejects_r_below_2(self):
        with pytest.raises(DomainError):
            walk_shells(10, 1, 1, limit=1)[0]

    def test_checks_its_arguments_at_the_call(self):
        with pytest.raises(DomainError):
            walk_shells(10, 1, 1)
        with pytest.raises(DomainError, match=str(MAX_SCAN_HI)):
            walk_shells(MAX_SCAN_HI + 1, 2, 2)

    def test_domain_limit(self):
        # above 10^12 a factored last level's m can pass 2^64, where
        # `is_prime` is no longer proven exact
        assert MAX_SCAN_HI == 10**12
        assert walk_shells(10**12, 2, 2, limit=1)[0] == Solution((2, 10**12), 10**12 - 2)
        with pytest.raises(DomainError, match=str(MAX_SCAN_HI)):
            walk_shells(10**12 + 1, 2, 2, limit=1)[0]

    def test_checks_n_below_2(self):
        for n in (1, 0, -5):
            with pytest.raises(DomainError, match="n must be >= 2"):
                walk_shells(n, 2, 2)
        with pytest.raises(DomainError, match=str(10**12)):
            walk_shells(MAX_SCAN_HI + 1, 2, 2)

    def test_shells_above_the_log2_bound_are_empty(self):
        # a walk of shell 10^8 would start by testing x^(10^8) against n
        tracemalloc.start()
        try:
            assert walk_shells(1000, 10**8, 10**8) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert (720720).bit_length() == 20
        assert walk_shells(720720, 2, 10**6) == walk_shells(720720, 2, 20)

    @staticmethod
    def assert_s2_is_the_reference_base_case(n):
        # ascending and distinct, basic solution first, equal to build_s2
        shell = walk_shells(n, 2, 2)
        assert shell[0] == Solution(tuple(sorted((2, n))), n - 2), n
        assert [s.nonunit for s in shell] == sorted({s.nonunit for s in shell}), n
        assert set(shell) == build_s2(n).solutions, n

    def test_s2_is_the_reference_base_case(self):
        for n in range(2, 10_001):
            self.assert_s2_is_the_reference_base_case(n)

    @given(st.integers(min_value=2, max_value=MAX_SOLVE_N))
    def test_s2_matches_build_s2(self, n):
        self.assert_s2_is_the_reference_base_case(n)

    @given(st.integers(min_value=2, max_value=100_000), st.data())
    def test_ascending_distinct_and_valid(self, n, data):
        r = data.draw(st.integers(min_value=2, max_value=n.bit_length() + 2), label="r")
        shell = walk_shells(n, r, r)
        assert [s.nonunit for s in shell] == sorted({s.nonunit for s in shell})
        assert all(validate(s) and s.n == n and s.r == r for s in shell)


class TestFactoredLastLevel:
    """The walk that factors m at every last level against the walk that
    trial-divides every one."""

    @staticmethod
    def first_items(n, r, max_trial):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "MAX_TRIAL", max_trial)
            return walk_shells(n, r, r, limit=50)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=10**7), st.sampled_from([2, 3, 4]))
    # n = 2 and n - 1 prime (4, 444, 9_999_992): S_2(n) is the basic
    # solution alone; 9_999_654 - 1 is a Sophie Germain prime, so the
    # prefix (2) adds no member to S_3(n)
    @example(2, 2)
    @example(4, 2)
    @example(444, 4)
    @example(9_999_992, 2)
    @example(9_999_992, 3)
    @example(9_999_654, 3)
    @example(9_999_654, 4)
    def test_same_items_in_the_same_order(self, n, r):
        factored = self.first_items(n, r, 0)
        assert factored == self.first_items(n, r, 10**18)
        assert all(s.n == n and s.r == r for s in factored)

    @pytest.fixture
    def calls(self, monkeypatch):
        # the arguments of every `_divisors` call: the factored last levels
        calls = []

        def recording(*args):
            calls.append(args)
            return _divisors(*args)

        monkeypatch.setattr(solver, "_divisors", recording)
        return calls

    def test_long_ranges_factor_by_default(self, calls):
        # isqrt(10^7 - 2) = 3162 > MAX_TRIAL, so S_2(10^7) comes from the
        # divisors of 10^7 - 1 = 3^2 * 239 * 4649
        assert [s.nonunit[0] - 1 for s in walk_shells(10**7, 2, 2)] == [1, 3, 9, 239, 717, 2151]
        assert calls == [(10**7 - 1, 1, 3162, 1)]

    def test_factored_m_within_the_bound(self, calls):
        # the bound in `walk_shells`' docstring, on the first-hit walks of the
        # 40 largest n = 6k <= MAX_SCAN_HI with n - 1 prime
        ns = (n for n in range(MAX_SCAN_HI // 6 * 6, 0, -6) if is_prime(n - 1))
        for n in islice(ns, 40):
            calls.clear()
            find_first_nonbasic(n)
            assert calls, n
            for m, _, _, p in calls:
                assert m * solver.MAX_TRIAL**2 < (n + p) ** 2 and m < 2**64, (n, m, p)


class TestFactorization:
    @pytest.mark.parametrize(
        "m",
        [
            1,
            2,
            37,
            41**2,  # the square of the first prime above the trial divisions
            1000003**2,
            2147483647**2,  # just below 2^62
            3**40,
            41**11,
            1000003 * 1000033,  # close factors
            2147483629 * 2147483647,
            561,  # Carmichael numbers
            41041,
            825265,
            252601,
            3215031751,
            2**62 - 1,
            2**62,
        ],
    )
    def test_examples(self, m):
        factors = _prime_factors(m)
        assert prod(factors) == m
        assert all(is_prime(q) for q in factors)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=2**62))
    def test_factors_multiply_back_and_are_prime(self, m):
        factors = _prime_factors(m)
        assert prod(factors) == m
        assert all(is_prime(q) for q in factors)

    @settings(max_examples=100, derandomize=True)
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    )
    def test_divisors_in_the_class_and_range(self, m, p, low, width):
        top = low + width
        expected = [d for d in range(low, top + 1) if m % d == 0 and (d + 1) % p == 0]
        assert _divisors(m, low, top, p) == expected


class TestEngineAgreement:
    """The walk against engines that do not use it."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=700))
    def test_matches_recursion(self, n):
        assert calc_solution(n) == reference_solution(n)

    @given(st.integers(min_value=2, max_value=8))
    def test_matches_exhaustive_tiny(self, n):
        assert calc_solution(n) == exhaustive_tiny_solutions(n)


def one_above_a_prime(m):
    """The least n >= m + 1 with n - 1 prime."""
    return next(q for q in count(m) if is_prime(q)) + 1


class TestOneWalkAgainstOneShellWalks:
    """The walk over every shell, whose children are bounded by the loosest
    bound of the shells they serve, against one walk per shell, bounded by
    that shell's own bound."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=10**6))
    @example(720720)  # 19 members, in every shell from r = 2 to r = 6
    def test_calc_solution_is_the_union_of_the_shells(self, n):
        shells = set()
        for r in range(2, n.bit_length() + 1):
            shells.update(walk_shells(n, r, r))
        assert calc_solution(n) == shells

    @settings(max_examples=40, deadline=None)
    # prime gaps below 10^7 are under 200, so n <= 10^7
    @given(st.integers(min_value=1, max_value=10**7 - 200).map(one_above_a_prime))
    # S_3(n) is empty and the first hit lies in r = 5 (42) or r = 6 (420);
    # 444 is exceptional; 9_999_654 - 1 is a Sophie Germain prime
    @example(42)
    @example(420)
    @example(444)
    @example(9_999_654)
    def test_first_nonbasic_is_the_first_member_of_the_lowest_shell(self, n):
        first_members = (walk_shells(n, r, r, limit=1) for r in range(3, n.bit_length() + 1))
        assert find_first_nonbasic(n) == next(filter(None, first_members), [None])[0]


class TestBlockSolve:
    """The block walk, and the memo that `calc_solution` fills from it,
    against one walk per n."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=1, max_value=BLOCK))
    @example(2, BLOCK - 1)  # shells from r = 2 to r = 6, cut at floor(log2 n) + 1
    @example(720720, 1)
    @example(10**6 - BLOCK + 1, BLOCK)
    def test_matches_one_walk_per_n(self, lo, width):
        hi = lo + width - 1
        shells = _solve_block(lo, hi)
        assert len(shells) == hi.bit_length() - 1
        for n in range(lo, hi + 1):
            members = [s for row in shells for s in row[n - lo]]
            assert len(members) == len(set(members)), n
            assert set(members) == calc_solution(n), n
            assert all(s.r == r for r, row in enumerate(shells, 2) for s in row[n - lo]), n

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_memo_in_any_order(self, order):
        ns = list(range(2, 1301))
        if order == "descending":
            ns.reverse()
        elif order == "shuffled":
            random.Random(1300).shuffle(ns)
        memo = MemoStore()
        for n in ns:
            assert calc_solution(n, memo) == calc_solution(n), n
        # blocks are aligned, so the memo ends the same whatever the order
        assert set(memo) == {(m, r) for m in range(2, 1344) for r in range(2, m.bit_length() + 1)}

    def test_files_every_shell_of_the_block(self):
        memo = MemoStore()
        assert calc_solution(100, memo) == calc_solution(100)
        assert set(memo) == {(m, r) for m in range(64, 128) for r in range(2, m.bit_length() + 1)}
        for key, entry in memo.items():
            assert type(key) is SolutionKey and type(entry) is SolutionSet and entry.key is key
            assert set(entry) == set(walk_shells(key.n, key.r, key.r)), key
        assert calc_solution(5, memo) == calc_solution(5)
        assert len(memo) == sum(m.bit_length() - 1 for m in range(2, 128))

    def test_last_block_is_clipped_at_the_limit(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_SOLVE_N", 100)
        memo = MemoStore()
        assert calc_solution(100, memo) == calc_solution(100)
        assert {key.n for key in memo} == set(range(64, 101))
        with pytest.raises(DomainError):
            calc_solution(101, memo)

    def test_reads_only_through_get(self):
        class CountingStore(MemoStore):
            lookups = 0

            def get(self, key):
                self.lookups += 1
                return super().get(key)

        memo = CountingStore()
        calc_solution(800, memo)  # 9 misses, then 9 hits after the fill
        assert memo.lookups == 2 * 9
        calc_solution(801, memo)
        assert memo.lookups == 3 * 9

    def test_reference_reads_the_engine_memo(self):
        memo = MemoStore()
        for n in range(2, 201):
            calc_solution(n, memo)
        for n in range(2, 201):
            assert reference_solution(n, memo) == reference_solution(n), n
        # every set the recursion asks for was filed, so it extends nothing
        assert memo.extend_evaluations == 0

    @pytest.mark.parametrize(
        "lo,hi", [(1, 10), (0, 5), (10, 9), (MAX_SOLVE_N, MAX_SOLVE_N + 1), (100, 100 + BLOCK)]
    )
    def test_block_rejects_its_domain(self, lo, hi):
        with pytest.raises(DomainError):
            _solve_block(lo, hi)

    @pytest.mark.parametrize("n", [1, 0, MAX_SOLVE_N + 1])
    def test_memo_path_rejects_its_domain(self, n):
        memo = MemoStore()
        with pytest.raises(DomainError):
            calc_solution(n, memo)
        assert not memo


class TestNoCyclicGarbage:
    """The walks free what they build as they return: a collection right
    after a call finds nothing."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: walk_shells(800, 2, 10),
            lambda: walk_shells(10**6, 3, 3, limit=1),
            lambda: calc_solution(800),
            lambda: calc_solution(800, MemoStore()),
            lambda: _solve_block(800, 863),
            lambda: find_first_nonbasic(444),
            lambda: exceptional._rows.__wrapped__(exceptional.DENSE_STEP),  # not the cached one
        ],
        ids=["walk", "walk-limit", "calc", "calc-memo", "block", "first-nonbasic", "rows"],
    )
    def test_collection_after_the_call_finds_nothing(self, call):
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()
