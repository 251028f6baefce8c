import pytest

from espsolver.core import DomainError, Solution, validate
from espsolver.solver import is_prime
from espsolver.reference import SolutionKey, build_s2


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
            # the least strong pseudoprimes to the first 1, 2, 3, 5, 6, 7
            # and 9 prime bases
            (2047, False),
            (1373653, False),
            (25326001, False),
            (2152302898747, False),
            (3474749660383, False),
            (341550071728321, False),
            (3825123056546413051, False),
        ],
    )
    def test_known_values(self, m, expected):
        assert is_prime(m) == expected
