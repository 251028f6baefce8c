"""Brute-force ground truth for small n.

Deliberately simple enumeration, independent of the walk, that checks
`calc_solution`: `esp verify NMAX` compares the two for n = 2 ... NMAX,
and the tests do too. Guarded to n <= 64.
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement

from .core import DomainError, Solution

MAX_N = 64


def brute_force_solutions(n: int) -> set[Solution]:
    """Enumerate every ESP solution for n variables by direct search.

    For each feasible non-unit count r, walks all non-decreasing tuples of
    components in [2, n], pruning any branch whose partial product exceeds
    2n (no valid common value can), and keeps those with
    product == sum + (n - r).
    """
    if not 2 <= n <= MAX_N:
        raise DomainError(f"n must be in [2, {MAX_N}], got {n}")
    found: set[Solution] = set()
    cap = 2 * n
    m = n.bit_length() - 1

    def walk(prefix: list[int], total: int, prod: int, lo: int, r: int) -> None:
        if len(prefix) == r:
            if prod == total + (n - r):
                found.add(Solution(tuple(prefix), n - r))
            return
        for x in range(lo, n + 1):
            nxt = prod * x
            if nxt > cap:
                break
            prefix.append(x)
            walk(prefix, total + x, nxt, x, r)
            prefix.pop()

    for r in range(2, m + 2):
        walk([], 0, 1, 2, r)
    return found


def exhaustive_tiny_solutions(n: int) -> set[Solution]:
    """Even dumber enumerator for n <= 8: all multisets in [1, n]^n.

    Applies no structural shortcuts at all (not even the bound on the
    number of non-unit components), so it independently confirms them.
    """
    if not 2 <= n <= 8:
        raise DomainError(f"n must be in [2, 8], got {n}")
    found: set[Solution] = set()
    for tup in combinations_with_replacement(range(1, n + 1), n):
        if math.prod(tup) == sum(tup):
            nonunit = tuple(x for x in tup if x >= 2)
            found.add(Solution(nonunit, n - len(nonunit)))
    return found
