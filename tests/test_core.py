import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from espsolver.core import InvalidSolutionError, Solution, common_value, is_basic, validate


class TestValidate:
    def test_two_twos(self):
        assert validate(Solution((2, 2), 0))

    def test_one_two_three(self):
        assert validate(Solution((2, 3), 1))

    def test_off_by_one_units(self):
        assert not validate(Solution((2, 2, 2), 1))

    def test_rejects_zero_component(self):
        assert not validate(Solution((0, 4), 2))

    def test_rejects_short_nonunit(self):
        assert not validate(Solution((4,), 0))

    def test_rejects_unsorted(self):
        assert not validate(Solution((15, 2), 13))

    def test_rejects_negative_units(self):
        assert not validate(Solution((2, 2), -1))

    @given(
        st.tuples(
            st.lists(st.integers(min_value=-2, max_value=40), max_size=6),
            st.integers(min_value=-3, max_value=60),
        )
    )
    def test_never_raises(self, raw):
        nonunit, units = raw
        validate(Solution(tuple(nonunit), units))  # any verdict, no exception


class TestCommonValue:
    @pytest.mark.parametrize(
        "s,value",
        [
            (Solution((2, 2), 0), 4),
            (Solution((2, 2, 2), 2), 8),
            (Solution((2, 15), 13), 30),
        ],
    )
    def test_examples(self, s, value):
        assert common_value(s) == value

    def test_rejects_invalid(self):
        with pytest.raises(InvalidSolutionError):
            common_value(Solution((3, 3), 99))

    def test_equality_case_is_basic(self):
        s = Solution((2, 15), 13)
        assert common_value(s) == 2 * s.n
        assert is_basic(s)


class TestIsBasic:
    def test_basic_15(self):
        assert is_basic(Solution((2, 15), 13))

    def test_nonbasic_15(self):
        assert not is_basic(Solution((3, 8), 13))

    def test_n2_basic(self):
        assert is_basic(Solution((2, 2), 0))

    def test_rejects_invalid(self):
        with pytest.raises(InvalidSolutionError):
            is_basic(Solution((2, 2), 5))


class TestRendering:
    def test_text_descending(self):
        assert Solution((2, 15), 13).as_text() == "(15,2;13)"

    def test_text_no_units(self):
        assert Solution((2, 2), 0).as_text() == "(2,2;0)"

    def test_dict_round_trip(self):
        s = Solution((3, 8), 13)
        assert s.as_dict() == {"nonunit": [3, 8], "units": 13}
        assert Solution.from_dict(s.as_dict()) == s


class TestSolutionValue:
    """Solution is a tuple (nonunit, units) with value semantics."""

    def test_equality_and_hash_follow_fields(self):
        a, b = Solution((2, 15), 13), Solution((2, 15), 13)
        assert a == b and hash(a) == hash(b)
        assert a != Solution((3, 8), 13)
        assert a != Solution((2, 15), 12)
        assert len({a, b, Solution((3, 8), 13)}) == 2

    def test_is_a_tuple(self):
        s = Solution((2, 15), 13)
        assert s == ((2, 15), 13)
        assert len(s) == 2
        nonunit, units = s
        assert (nonunit, units) == (s.nonunit, s.units)
        assert Solution((2, 2, 2), 2) < Solution((2, 5), 3)

    def test_immutable(self):
        s = Solution((2, 15), 13)
        with pytest.raises(AttributeError):
            s.units = 12
        with pytest.raises(AttributeError):
            s.extra = 1  # no instance __dict__

    def test_pickle_round_trip(self):
        s = Solution((2, 15), 13)
        back = pickle.loads(pickle.dumps(s))
        assert back == s and type(back) is Solution

    def test_repr(self):
        assert repr(Solution((2, 15), 13)) == "Solution(nonunit=(2, 15), units=13)"
