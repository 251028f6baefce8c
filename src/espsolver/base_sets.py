"""Base sets S_2(n) and primality utilities.

S_2(n), the solutions with exactly two non-unit components, comes from the
factorizations of n-1: each divisor d of n-1 with d^2 <= n-1 yields the
solution (d+1, (n-1)/d + 1; n-2).
"""

from __future__ import annotations

from math import isqrt

from .core import DomainError, Solution, SolutionKey, SolutionSet

# Witness bases making the strong-pseudoprime test deterministic for all
# inputs below 3.3 * 10^24, which covers the full 64-bit range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def divisors_up_to_sqrt(m: int) -> tuple[int, ...]:
    """The divisors d of m with d*d <= m, ascending, by trial division."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    return tuple(d for d in range(1, isqrt(m) + 1) if m % d == 0)


def build_s2(n: int) -> SolutionSet:
    """Construct S_2(n) from the divisor pairs of n-1.

    Always contains the basic solution (2, n; n-2), contributed by d=1.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    m = n - 1
    solutions = frozenset(
        Solution(tuple(sorted((d + 1, m // d + 1))), n - 2)
        for d in divisors_up_to_sqrt(m)
    )
    return SolutionSet(SolutionKey(n, 2), solutions)


def is_prime(m: int) -> bool:
    """Deterministic primality test, exact for all m < 2^64."""
    if m < 2:
        return False
    for p in _SMALL_PRIMES:
        if m == p:
            return True
        if m % p == 0:
            return False
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True
