import pytest

from espsolver.solver import is_prime


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
