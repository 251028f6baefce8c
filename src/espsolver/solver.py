"""Construction of the solution sets S_r(n).

The engine, `calc_solution`, takes every S_r(n), r = 2 ... floor(log2 n)
+ 1, from `walk_shell`, a product-bounded walk over ascending components
that solves for the largest one; for r = 2 it reads the divisor pairs of
n-1. A solve takes about 0.1 ms at n = 700, 1 ms at n = 10^4, 20 ms at
10^6 and 1.5 s at 10^8 (one core, Python 3.11), a little under linear in
n at large n, so `calc_solution` accepts n up to MAX_SOLVE_N.

The paper's memoized recursion, which the walk is tested against, lives
in `reference`; nothing here calls it.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import isqrt

from .core import DomainError, Solution

# Re-exported, here and in `exceptional`, only for tests/test_acceptance.py,
# bench/workloads.py and bench/tracing.py, which read or patch them by name.
from .reference import MemoStore, build_s2, calc_shell, reference_solution  # noqa: F401

# Largest n `calc_solution` accepts; the walk takes about 1.5 s there.
MAX_SOLVE_N = 10**8


def walk_shell(n: int, r: int) -> Iterator[Solution]:
    """Yield S_r(n) for r >= 2, ascending by non-unit components.

    A member has components x_1 <= ... <= x_r >= 2 whose product equals
    their sum plus the n - r units.  The walk extends ascending prefixes
    and bounds the product: under a prefix with product p and sum s, the
    L components still to place are all >= x, and p*prod(y) - sum(y) only
    grows with each y, so a completion exists only if
    p*x^L - L*x <= s + n - r.  That cuts every branch whose smallest
    completion has too large a product (a tighter form of the bound that
    no common value exceeds 2n).  For the last two components x <= w,
    p*x*w = s + x + w + n - r, so w = (s + x + n - r) / (p*x - 1).  That is
    an integer exactly when d = p*x - 1 divides m = p*(s + n - r) + 1, and
    the bound with L = 2, which is w >= x, reads d <= isqrt(m); so the last
    level is one remainder per x.  For r = 2 the prefix is empty and the
    last level reads off the divisors d <= isqrt(n-1) of n-1, so S_2(n)
    comes out basic solution (d = 1) first.
    """
    if n < 2 or r < 2:
        raise DomainError(f"need n >= 2 and r >= 2, got ({n}, {r})")
    units = n - r

    def walk(prefix: tuple[int, ...], p: int, s: int, lo: int) -> Iterator[Solution]:
        left = r - len(prefix)  # components still to place, the last two included
        num = s + units
        if left > 2:
            x = lo
            while p * x**left - left * x <= num:
                yield from walk(prefix + (x,), p * x, s + x, x)
                x += 1
            return
        m = p * num + 1
        for d in range(p * lo - 1, isqrt(m) + 1, p):
            if not m % d:
                x = (d + 1) // p
                yield Solution(prefix + (x, (num + x) // d), units)

    yield from walk((), 1, 0, 2)


def calc_solution(n: int, memo: object = None) -> set[Solution]:
    """All ESP solutions for n variables, for 2 <= n <= MAX_SOLVE_N: the
    union of `walk_shell(n, r)` for r = 2 ... floor(log2 n) + 1.

    `memo` is accepted for callers that pass one and is not used; the walk
    keeps no state between calls.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if n > MAX_SOLVE_N:
        raise DomainError(f"n must be <= {MAX_SOLVE_N}, got {n}")
    result: set[Solution] = set()
    for r in range(2, n.bit_length() + 1):
        result.update(walk_shell(n, r))
    return result
