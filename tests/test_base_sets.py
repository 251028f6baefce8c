import pytest

from espsolver.core import DomainError, Solution, validate
from espsolver.exceptional import is_prime
from espsolver.reference import SolutionKey, build_s2


def naive_tau(m: int) -> int:
    """Divisor count by checking every candidate, for cross-checking."""
    return sum(1 for d in range(1, m + 1) if m % d == 0)


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


class TestIsPrime:
    def test_one_not_prime(self):
        assert not is_prime(1)

    def test_113(self):
        assert is_prime(113)

    def test_887(self):
        assert is_prime(887)

    def test_agrees_with_trial_division(self):
        for m in range(0, 10_000):
            naive = m >= 2 and all(m % d for d in range(2, int(m**0.5) + 1))
            assert is_prime(m) == naive, m

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
        ],
    )
    def test_known_values(self, m, expected):
        assert is_prime(m) == expected
