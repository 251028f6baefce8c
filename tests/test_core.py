import pytest
from hypothesis import given
from hypothesis import strategies as st

from espsolver.core import InvalidSolutionError, Solution, common_value, is_basic, validate
from espsolver.reference import SolutionKey, SolutionSet


class TestSolutionKeyOrder:
    def test_matches_lexicographic_order_exhaustively(self):
        # MemoStore keeps its keys in this order: by n, ties broken by r.
        # Equivalence with tuple comparison implies a total order
        # (antisymmetry, transitivity, trichotomy) for free.
        keys = [SolutionKey(n, r) for n in range(2, 51) for r in range(2, n + 1)]
        for a in keys:
            for b in keys:
                assert (a < b) == ((a.n, a.r) < (b.n, b.r))
                assert (a == b) == ((a.n, a.r) == (b.n, b.r))


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


class TestSolutionSet:
    def test_rejects_mismatched_member(self):
        with pytest.raises(InvalidSolutionError):
            SolutionSet(SolutionKey(5, 2), frozenset({Solution((2, 2, 2), 2)}))

    def test_len_and_iter(self):
        ss = SolutionSet(SolutionKey(15, 2), frozenset({Solution((2, 15), 13)}))
        assert len(ss) == 1
        assert set(ss) == {Solution((2, 15), 13)}
