"""The paper's memoized recursion: the reference the walk is tested against.

Nothing on the engine path calls it. Its base case S_2(n) is `build_s2`,
from a trial division of n-1. It builds each S_r(n) for r >= 3 from the
elements of S_{r-1}(r+j) for j in a small integer window: a base solution
with non-unit sum t extends to an r-component solution exactly when
(n - r - j) is divisible by (t + j), the new component being
w = 1 + (n-r-j)/(t+j). Computed sets, empty or not, are cached in a
MemoStore, a dict keyed by (n, r), so shared subproblems are built once.
Its cost grows like n^2.3 (0.3 s at n = 700, minutes at n = 10^4).
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt

from .core import DomainError, InvalidSolutionError, Solution


class SolutionKey(namedtuple("SolutionKey", "n r")):
    """Identifies the set of solutions with tuple length n and r non-unit
    components.  A tuple (n, r), so ordered by n first, then r."""

    __slots__ = ()


class SolutionSet:
    """The (possibly empty) set of solutions for one (n, r) key.

    MemoStore files it under its key; it compares by identity.
    """

    __slots__ = ("key", "solutions")

    def __init__(self, key: SolutionKey, solutions: frozenset[Solution]):
        r, units = key.r, key.n - key.r
        for s in solutions:
            if len(s.nonunit) != r or s.units != units:
                raise InvalidSolutionError(f"solution {s} does not belong to key {key}")
        self.key = key
        self.solutions = solutions

    def __repr__(self) -> str:
        return f"SolutionSet(key={self.key!r}, solutions={self.solutions!r})"

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self):
        return iter(self.solutions)


def j_bounds(n: int, r: int) -> range:
    """The window 2^(r-2) - r <= j <= floor((n - 3r + 2) / 2), ascending.

    The floor is toward negative infinity (Python //), which matters when
    the numerator is negative: (n, r) = (4, 3) gives an upper bound of -2,
    an empty window, so S_3(4) is empty without any enumeration.
    """
    if r < 3:
        raise DomainError(f"r must be >= 3, got {r}")
    return range(2 ** (r - 2) - r, (n - 3 * r + 2) // 2 + 1)


def extend_candidate(base: Solution, j: int, n: int, r: int) -> Solution | None:
    """Try to extend a base solution in S_{r-1}(r+j) to a member of S_r(n).

    Returns the extended solution when w = 1 + (n-r-j)/(sum(base)+j) is an
    integer >= 2, else None.
    """
    if base.units != j + 1 or base.r != r - 1:
        raise ValueError(
            f"base {base} does not have shape (r-1={r - 1} non-units, "
            f"j+1={j + 1} units)"
        )
    num = n - r - j
    den = sum(base.nonunit) + j
    if num <= 0 or den <= 0 or num % den != 0:
        return None
    w = 1 + num // den
    if w < 2:
        return None
    return Solution(tuple(sorted(base.nonunit + (w,))), n - r)


class MemoStore(dict):
    """Map from SolutionKey to SolutionSet: the paper's memo as a dict.

    The paper examines a Binary Search Tree here; its order would serve an
    in-order traversal, which the recursion never makes (README, "The memo
    and the paper's BST"). Empty sets are stored like any other so dead-end
    subproblems are never recomputed. `calc_shell` looks keys up through
    `get`, so a subclass that overrides it sees every lookup.

    `extend_evaluations` counts divisibility tests performed on behalf of
    this store; a fully memoized call performs none.
    """

    extend_evaluations = 0


def build_s2(n: int) -> SolutionSet:
    """The reference's base case S_2(n), from the divisor pairs of n-1.

    Each divisor d of n-1 with d*d <= n-1, found by trial division, gives
    the solution (d+1, (n-1)/d + 1; n-2); d = 1 gives the basic one.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    m = n - 1
    solutions = frozenset(
        Solution((d + 1, m // d + 1), n - 2) for d in range(1, isqrt(m) + 1) if m % d == 0
    )
    return SolutionSet(SolutionKey(n, 2), solutions)


def calc_shell(k: int, r: int, memo: MemoStore, *, j_descending: bool = False) -> SolutionSet:
    """Compute S_r(k), consulting and updating the memo store."""
    if k < 2 or r < 2:
        raise DomainError(f"need k >= 2 and r >= 2, got ({k}, {r})")
    key = SolutionKey(k, r)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if r == 2:
        result = memo[key] = build_s2(k)
        return result
    found = set()
    # above floor(log2 k) + 1, 2^(r-2) > k/2, so 2^(r-2) - r > (k - 3r + 2)/2
    # and the window is empty: skip computing its bound
    window = j_bounds(k, r) if r <= k.bit_length() else ()
    for j in reversed(window) if j_descending else window:
        base_set = calc_shell(j + r, r - 1, memo, j_descending=j_descending)
        for base in base_set:
            memo.extend_evaluations += 1
            extended = extend_candidate(base, j, k, r)
            if extended is not None:
                found.add(extended)
    result = memo[key] = SolutionSet(key, frozenset(found))
    return result


def reference_solution(
    n: int, memo: MemoStore | None = None, *, j_descending: bool = False
) -> set[Solution]:
    """All ESP solutions for n variables by the paper's recursion: the
    union of S_r(n) over r = floor(log2 n) + 1 down to 2.

    The reference for `solver.calc_solution`. It has no limit on n, so it
    is meant for tests and small n only.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if memo is None:
        memo = MemoStore()
    result: set[Solution] = set()
    m = n.bit_length() - 1  # floor(log2 n), exact
    for r in range(m + 1, 1, -1):
        result |= calc_shell(n, r, memo, j_descending=j_descending).solutions
    return result
