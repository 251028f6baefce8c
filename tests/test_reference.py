import time

import pytest

from espsolver.core import DomainError, InvalidSolutionError, Solution, validate
from espsolver.reference import (
    _EMPTY,
    MemoStore,
    SolutionKey,
    SolutionSet,
    build_s2,
    calc_shell,
    extend_candidate,
    j_bounds,
    reference_solution,
)
from espsolver.solver import is_prime


def s2_divisors(m: int) -> tuple[int, ...]:
    """The divisors of m that build_s2(m + 1) pairs up, ascending."""
    return tuple(sorted(s.nonunit[0] - 1 for s in build_s2(m + 1)))


class TestDivisors:
    """build_s2(m + 1) pairs exactly the divisors d of m with d*d <= m."""

    @pytest.mark.parametrize(
        "m,expected",
        [(1, (1,)), (14, (1, 2)), (4, (1, 2)), (36, (1, 2, 3, 4, 6)), (97, (1,))],
    )
    def test_examples(self, m, expected):
        assert s2_divisors(m) == expected

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            s2_divisors(0)

    def test_complete_and_bounded(self):
        for m in range(1, 500):
            divs = s2_divisors(m)
            assert list(divs) == [d for d in range(1, m + 1) if m % d == 0 and d * d <= m]


def naive_tau(m: int) -> int:
    """Divisor count by checking every candidate, for cross-checking."""
    return sum(1 for d in range(1, m + 1) if m % d == 0)


class TestBuildS2:
    def test_n2(self):
        assert build_s2(2).solutions == {Solution((2, 2), 0)}

    def test_n7(self):
        assert build_s2(7).solutions == {Solution((2, 7), 5), Solution((3, 4), 5)}

    def test_n15(self):
        assert build_s2(15).solutions == {Solution((2, 15), 13), Solution((3, 8), 13)}

    def test_perfect_square_no_duplicate(self):
        # n-1 = 4: divisor 2 pairs with itself, one (3,3) solution only
        assert build_s2(5).solutions == {Solution((2, 5), 3), Solution((3, 3), 3)}

    def test_rejects_small_n(self):
        with pytest.raises(DomainError):
            build_s2(1)

    def test_key(self):
        assert build_s2(9).key == SolutionKey(9, 2)

    def test_cardinality_matches_divisor_count(self):
        for n in range(2, 1500):
            tau = naive_tau(n - 1)
            assert len(build_s2(n)) == (tau + 1) // 2, n

    def test_singleton_iff_prime(self):
        for n in range(3, 5000):
            assert (len(build_s2(n)) == 1) == is_prime(n - 1), n

    def test_members_validate(self):
        for n in range(2, 300):
            for s in build_s2(n):
                assert validate(s)
                assert s.n == n and s.r == 2


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
    def test_reinsert_same_key(self):
        memo = MemoStore()
        memo[SolutionKey(5, 3)] = SolutionSet(SolutionKey(5, 3), frozenset())
        memo[SolutionKey(5, 3)] = SolutionSet(SolutionKey(5, 3), frozenset())
        assert len(memo) == 1
        assert list(memo) == [SolutionKey(5, 3)]

    def test_get_and_contains(self):
        memo = MemoStore()
        ss = SolutionSet(SolutionKey(5, 3), frozenset({Solution((2, 2, 2), 2)}))
        memo[ss.key] = ss
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

    def test_shell_far_above_log2_bound_is_empty_at_once(self):
        # the window is empty from r = floor(log2 n) + 2 on, so the shell
        # skips computing 2^(r-2)
        for n in range(2, 20_000):
            assert not j_bounds(n, n.bit_length() + 1), n
        start = time.perf_counter()
        assert calc_shell(10, 10**8, MemoStore()).solutions == frozenset()
        assert time.perf_counter() - start < 0.01

    def test_size_bound(self):
        memo = MemoStore()
        for n in range(2, 120):
            for r in range(2, n.bit_length() + 1):
                assert len(calc_shell(n, r, memo)) <= (n - 1) ** r


class TestReferenceSolution:
    def test_j_order_independence(self):
        for n in range(2, 65):
            asc = reference_solution(n, MemoStore(), j_descending=False)
            desc = reference_solution(n, MemoStore(), j_descending=True)
            assert asc == desc, n


class CountingStore(MemoStore):
    """A MemoStore that counts its lookups and hits, as the tracer does."""

    def __init__(self):
        super().__init__()
        self.lookups = 0
        self.hits = 0

    def get(self, key):
        found = super().get(key)
        self.lookups += 1
        self.hits += found is not None
        return found


class TestMemoWork:
    """The recursion's memo work, pinned: README's table of the paper's
    BST question reads these counts."""

    @pytest.mark.parametrize(
        "n,entries,lookups,hits,evaluations",
        [
            (200, 475, 7_661, 7_186, 6_292),
            (400, 1_145, 39_855, 38_710, 32_361),
            (700, 2_287, 145_853, 143_566, 119_767),
        ],
    )
    def test_pinned_counts(self, n, entries, lookups, hits, evaluations):
        store = CountingStore()
        reference_solution(n, store)
        assert (len(store), store.lookups, store.hits, store.extend_evaluations) == (
            entries,
            lookups,
            hits,
            evaluations,
        )

    def test_empty_entries_share_one_frozenset(self):
        store = MemoStore()
        reference_solution(700, store)
        empties = [entry.solutions for entry in store.values() if not entry]
        assert len(empties) == 1_382
        assert all(solutions is _EMPTY for solutions in empties)


class TestSolutionKeyOrder:
    def test_matches_lexicographic_order_exhaustively(self):
        # A SolutionKey orders like its tuple: by n, ties broken by r.
        # Equivalence with tuple comparison implies a total order
        # (antisymmetry, transitivity, trichotomy) for free.
        keys = [SolutionKey(n, r) for n in range(2, 51) for r in range(2, n + 1)]
        for a in keys:
            for b in keys:
                assert (a < b) == ((a.n, a.r) < (b.n, b.r))
                assert (a == b) == ((a.n, a.r) == (b.n, b.r))


class TestSolutionSet:
    def test_rejects_mismatched_member(self):
        with pytest.raises(InvalidSolutionError):
            SolutionSet(SolutionKey(5, 2), frozenset({Solution((2, 2, 2), 2)}))

    def test_rejects_member_of_other_n(self):
        with pytest.raises(InvalidSolutionError):
            SolutionSet(SolutionKey(5, 2), frozenset({Solution((2, 5), 3), Solution((2, 7), 5)}))

    def test_len_and_iter(self):
        ss = SolutionSet(SolutionKey(15, 2), frozenset({Solution((2, 15), 13)}))
        assert len(ss) == 1
        assert set(ss) == {Solution((2, 15), 13)}

    def test_empty_forms_share_one_frozenset(self):
        key = SolutionKey(4, 3)
        for members in ((), [], set(), frozenset(), (s for s in ())):
            ss = SolutionSet(key, members)
            assert type(ss) is SolutionSet and ss.key is key
            assert ss.solutions is _EMPTY, type(members)
            assert len(ss) == 0 and list(ss) == []

    def test_any_iterable_of_members(self):
        key = SolutionKey(15, 2)
        members = [Solution((2, 15), 13), Solution((3, 8), 13)]
        kept = frozenset(members)
        forms = (list, tuple, set, lambda m: (s for s in m), frozenset)
        for form in forms:
            assert SolutionSet(key, form(members)).solutions == kept, form
        assert SolutionSet(key, kept).solutions is kept
        foreign = members + [Solution((2, 14), 12)]  # a member of n = 14
        for form in forms:
            with pytest.raises(InvalidSolutionError):
                SolutionSet(key, form(foreign))
