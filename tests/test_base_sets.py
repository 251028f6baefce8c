import pytest

from espsolver.solver import is_prime


class TestIsPrime:
    @pytest.mark.parametrize(
        "m,expected",
        [
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
