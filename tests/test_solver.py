from itertools import islice
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from espsolver import exceptional, reference, solver
from espsolver.core import DomainError, Solution, common_value, is_basic, validate
from espsolver.oracle import brute_force_solutions, exhaustive_tiny_solutions
from espsolver.reference import (
    MemoStore,
    SolutionKey,
    SolutionSet,
    build_s2,
    calc_shell,
    extend_candidate,
    j_bounds,
    reference_solution,
)
from espsolver.solver import (
    MAX_SOLVE_N,
    _divisors,
    _prime_factors,
    calc_solution,
    is_prime,
    walk_shell,
)


def refuse_the_reference(monkeypatch):
    """Make the recursion's entry points raise, in `reference` and in the
    modules that re-export them, so any engine call into it fails."""

    def refuse(*args, **kwargs):
        raise AssertionError("the engine reached the reference recursion")

    for module in (reference, solver, exceptional):
        for name in ("calc_shell", "build_s2", "MemoStore"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)


class TestJBounds:
    def test_15_4(self):
        b = j_bounds(15, 4)
        assert (b.start, b.stop, len(b)) == (0, 3, 3)

    def test_15_3(self):
        b = j_bounds(15, 3)
        assert (b.start, b.stop, len(b)) == (-1, 5, 6)

    def test_4_3_empty(self):
        b = j_bounds(4, 3)
        assert (b.start, b.stop, len(b)) == (-1, -1, 0)

    def test_floor_toward_negative_infinity(self):
        # (4 - 9 + 2) / 2 = -1.5 must floor to -2, not truncate to -1
        assert j_bounds(4, 3).stop - 1 == -2

    def test_rejects_small_r(self):
        with pytest.raises(DomainError):
            j_bounds(10, 2)

    def test_iteration_orders(self):
        b = j_bounds(15, 3)
        assert list(b) == [-1, 0, 1, 2, 3, 4]
        assert list(reversed(b)) == [4, 3, 2, 1, 0, -1]


class TestExtendCandidate:
    def test_extends_to_s3_5(self):
        base = Solution((2, 2), 0)
        assert extend_candidate(base, -1, 5, 3) == Solution((2, 2, 2), 2)

    def test_non_integer_rejected(self):
        assert extend_candidate(Solution((2, 2), 0), -1, 6, 3) is None

    def test_s4_15_rejected(self):
        assert extend_candidate(Solution((2, 2, 2), 2), 1, 15, 4) is None

    def test_result_validates(self):
        s = extend_candidate(Solution((2, 2), 0), -1, 5, 3)
        assert s is not None and validate(s)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            extend_candidate(Solution((2, 2), 0), 3, 15, 3)  # units != j+1
        with pytest.raises(ValueError):
            extend_candidate(Solution((2, 2), 0), -1, 15, 4)  # wrong r


class TestMemoStore:
    def test_keys_stay_ordered(self):
        memo = MemoStore()
        for n, r in [(15, 4), (2, 2), (7, 2), (5, 3), (15, 2)]:
            memo.insert(SolutionSet(SolutionKey(n, r), frozenset()))
        assert memo.keys() == sorted(memo.keys())
        assert len(memo) == 5

    def test_reinsert_same_key(self):
        memo = MemoStore()
        memo.insert(SolutionSet(SolutionKey(5, 3), frozenset()))
        memo.insert(SolutionSet(SolutionKey(5, 3), frozenset()))
        assert len(memo) == 1
        assert memo.keys() == [SolutionKey(5, 3)]

    def test_get_and_contains(self):
        memo = MemoStore()
        ss = SolutionSet(SolutionKey(5, 3), frozenset({Solution((2, 2, 2), 2)}))
        memo.insert(ss)
        assert SolutionKey(5, 3) in memo
        assert memo.get(SolutionKey(5, 3)) is ss
        assert memo.get(SolutionKey(5, 2)) is None


class TestCalcShell:
    @pytest.mark.parametrize(
        "k,r,expected",
        [
            (5, 3, {Solution((2, 2, 2), 2)}),
            (6, 3, set()),
            (4, 3, set()),
            (15, 4, set()),
            (15, 3, set()),
            (7, 2, {Solution((2, 7), 5), Solution((3, 4), 5)}),
            (5, 2, {Solution((2, 5), 3), Solution((3, 3), 3)}),
            (12, 4, {Solution((2, 2, 2, 2), 8)}),
        ],
    )
    def test_golden_sets(self, k, r, expected):
        assert calc_shell(k, r, MemoStore()).solutions == expected

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            calc_shell(1, 2, MemoStore())
        with pytest.raises(DomainError):
            calc_shell(5, 1, MemoStore())

    def test_empty_sets_are_memoized(self):
        memo = MemoStore()
        calc_shell(6, 3, memo)
        assert SolutionKey(6, 3) in memo
        assert len(memo.get(SolutionKey(6, 3)).solutions) == 0

    def test_memo_idempotent_with_zero_recomputation(self):
        memo = MemoStore()
        first = calc_shell(15, 4, memo)
        evaluations = memo.extend_evaluations
        assert evaluations > 0
        second = calc_shell(15, 4, memo)
        assert second.solutions == first.solutions
        assert memo.extend_evaluations == evaluations

    def test_cutoff_above_log2_bound(self):
        for n in range(2, 201):
            m = n.bit_length() - 1
            for r in range(m + 2, m + 5):
                assert calc_shell(n, r, MemoStore()).solutions == set(), (n, r)

    def test_size_bound(self):
        memo = MemoStore()
        for n in range(2, 120):
            for r in range(2, n.bit_length() + 1):
                assert len(calc_shell(n, r, memo)) <= (n - 1) ** r


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

    def test_oracle_equivalence(self):
        memo = MemoStore()
        for n in range(2, 65):
            assert calc_solution(n, memo) == brute_force_solutions(n), n

    def test_j_order_independence(self):
        for n in range(2, 65):
            asc = reference_solution(n, MemoStore(), j_descending=False)
            desc = reference_solution(n, MemoStore(), j_descending=True)
            assert asc == desc, n

    def test_rejects_n_above_limit(self):
        with pytest.raises(DomainError):
            calc_solution(MAX_SOLVE_N + 1)

    def test_independent_of_the_reference(self, monkeypatch):
        refuse_the_reference(monkeypatch)
        for n in range(2, 65):
            assert calc_solution(n) == brute_force_solutions(n), n


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
        assert list(walk_shell(n, r)) == expected

    def test_rejects_r_below_2(self):
        with pytest.raises(DomainError):
            next(walk_shell(10, 1))

    @staticmethod
    def assert_s2_is_the_reference_base_case(n):
        # ascending and distinct, basic solution first, equal to build_s2
        shell = list(walk_shell(n, 2))
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
        shell = list(walk_shell(n, r))
        assert [s.nonunit for s in shell] == sorted({s.nonunit for s in shell})
        assert all(validate(s) and s.n == n and s.r == r for s in shell)


class TestFactoredLastLevel:
    """The walk that factors m at every last level against the walk that
    trial-divides every one."""

    @staticmethod
    def first_items(n, r, max_trial):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "MAX_TRIAL", max_trial)
            return list(islice(walk_shell(n, r), 50))

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

    def test_long_ranges_factor_by_default(self, monkeypatch):
        # isqrt(10^7 - 2) = 3162 > MAX_TRIAL, so S_2(10^7) comes from the
        # divisors of 10^7 - 1 = 3^2 * 239 * 4649
        calls = []

        def recording(*args):
            calls.append(args)
            return _divisors(*args)

        monkeypatch.setattr(solver, "_divisors", recording)
        assert [s.nonunit[0] - 1 for s in walk_shell(10**7, 2)] == [1, 3, 9, 239, 717, 2151]
        assert calls == [(10**7 - 1, 1, 3162, 1)]


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

    @given(st.integers(min_value=2, max_value=64))
    def test_matches_brute_force(self, n):
        assert calc_solution(n) == brute_force_solutions(n)

    @given(st.integers(min_value=2, max_value=8))
    def test_matches_exhaustive_tiny(self, n):
        assert calc_solution(n) == exhaustive_tiny_solutions(n)
