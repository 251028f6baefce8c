"""Core value types for the equal-sum-product (ESP) problem.

An ESP solution for n variables is an n-tuple of positive integers whose
sum equals its product.  Solutions are stored in compressed form: the
sorted non-unit components plus a count of 1-components.
"""

from __future__ import annotations

import math
from collections import namedtuple


class DomainError(ValueError):
    """An argument is outside the function's domain."""


class InvalidSolutionError(ValueError):
    """A Solution value does not satisfy the ESP identity or shape rules."""


class Solution(namedtuple("Solution", "nonunit units")):
    """An ESP solution: non-unit components (ascending) plus a unit count.

    (2, 15) with 13 units represents the 15-tuple 1^13, 2, 15 and renders
    as "(15,2;13)".

    It is a tuple (nonunit, units): immutable, hashed and compared in C,
    iterable and ordered like a tuple, with len(s) == 2, and equal to the
    plain tuple ((2, 15), 13).
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        """Total tuple length."""
        return len(self.nonunit) + self.units

    @property
    def r(self) -> int:
        """Number of non-unit components."""
        return len(self.nonunit)

    def as_text(self) -> str:
        """Canonical display form, components descending: "(15,2;13)"."""
        parts = ",".join(str(x) for x in reversed(self.nonunit))
        return f"({parts};{self.units})"

    def as_dict(self) -> dict:
        """JSON form, nonunit ascending."""
        return {"nonunit": list(self.nonunit), "units": self.units}

    @classmethod
    def from_dict(cls, d: dict) -> "Solution":
        return cls(tuple(d["nonunit"]), d["units"])


def validate(s: Solution) -> bool:
    """True iff s is a genuine ESP solution in compressed form.

    Checks shape (>= 2 non-unit components, each >= 2, ascending, units
    >= 0), the defining sum == product identity, and the derived bounds:
    the common value is at most 2n and no component exceeds n.
    """
    if s.units < 0 or len(s.nonunit) < 2:
        return False
    if any(x < 2 for x in s.nonunit):
        return False
    if any(a > b for a, b in zip(s.nonunit, s.nonunit[1:])):
        return False
    n = s.n
    prod = math.prod(s.nonunit)
    if prod != sum(s.nonunit) + s.units:
        return False
    if prod > 2 * n or s.nonunit[-1] > n:
        return False
    return True


def common_value(s: Solution) -> int:
    """The shared sum/product value of a valid solution (at most 2n)."""
    if not validate(s):
        raise InvalidSolutionError(f"not a valid ESP solution: {s}")
    return math.prod(s.nonunit)


def is_basic(s: Solution) -> bool:
    """True iff s is the always-present solution (2, n; n-2).

    For n == 2 that degenerates to (2, 2) with no units.
    """
    if not validate(s):
        raise InvalidSolutionError(f"not a valid ESP solution: {s}")
    n = s.n
    return s.nonunit == tuple(sorted((2, n)))
