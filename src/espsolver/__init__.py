"""Exact solver for the equal-sum-product problem.

Enumerates, for 2 <= n <= MAX_SOLVE_N, every n-tuple of positive integers
whose sum equals its product, and searches ranges for exceptional values
(n whose only such tuple is the basic one).
"""

from .core import (
    DomainError,
    InvalidSolutionError,
    Solution,
    common_value,
    is_basic,
    validate,
)
from .exceptional import (
    ScanReport,
    find_first_nonbasic,
    is_exceptional,
    is_sophie_germain,
    scan_exceptional,
)
from .oracle import brute_force_solutions
from .reference import reference_solution
from .solver import MAX_SOLVE_N, calc_solution, walk_shell

__all__ = [
    "DomainError",
    "InvalidSolutionError",
    "MAX_SOLVE_N",
    "ScanReport",
    "Solution",
    "brute_force_solutions",
    "calc_solution",
    "common_value",
    "find_first_nonbasic",
    "is_basic",
    "is_exceptional",
    "is_sophie_germain",
    "reference_solution",
    "scan_exceptional",
    "validate",
    "walk_shell",
]

__version__ = "0.1.0"
