"""Construction of the solution sets S_r(n).

The engine, `calc_solution`, builds every S_r(n), r = 2 ... floor(log2 n)
+ 1, in one depth-first walk over ascending prefixes of components
(`walk_shells`).  A prefix of r - 2 components solves the last level of
shell r, the two largest components, by one remainder per step; for r = 2
the prefix is empty and the last level reads off the divisor pairs of
n-1.  A prefix is extended while the product bound of the shallowest
shell its child serves holds, the loosest of their bounds, so a prefix
that several shells share is visited once.  `walk_shells(n, r, r)` is
the same walk confined to one shell and bounded by that shell's own
bound; the walk checks its own domain and cuts every range of shells at
floor(log2 n) + 1.  A separate walk per shell would visit more prefixes
for the same last-level steps:

    n       prefix visits (walk per shell -> one walk)   last-level steps
    800                   89 -> 45                             216
    10^4                 492 -> 305                          2 310
    10^6              14 591 -> 11 743                     193 371

A solve's cost grows a little under linear in n at large n, so
`calc_solution` accepts n up to MAX_SOLVE_N (README, "Limits and cost",
has the times).

With a memo, `calc_solution` fills it a block at a time: `_solve_block`
is the same walk bounded by hi instead of by one n, and builds every
S_r(n) of the aligned block of BLOCK values of n that holds the n asked
for.  Under a prefix of r - 2 components (product p, sum s) the members
with last components x <= y lie at n = d*y - s - x + r, d = p*x - 1: one
remainder per x finds the least such n >= lo, and each member after it
costs O(1).  The x range is that of one walk bounded by hi, so a block
costs little more than one walk at large n, and mostly its members at
small n.  A sweep over consecutive n with one memo thus pays a fraction
of a walk per n, while a one-off call pays for its whole block, filing
included (README, "Limits and cost").  Without a memo `calc_solution`
keeps the one walk: a block of width one is 1.1-1.25x slower, its
remainder per x costing more than `m % d`.  The walks stay one per bound,
n, hi or the step (`exceptional._rows`): each shared walk measured cost
4-29 % more.

The walk's last level tries one divisor per step of a range; a range of
more than MAX_TRIAL steps is replaced by the divisors of m that lie in
it, from a factorization (trial division by the primes up to 37, then
`is_prime` and Pollard's rho with Floyd's cycle search).  Full solves up
to MAX_SOLVE_N rarely meet such a range.  The first-hit walks of a scan
near 10^12 do, and the long scans rest on the factoring: [2, 10^9]
makes 1 447 walks that factor 10 935 levels, and [10^12 - 10^6, 10^12]
makes 1 walk that factors 2 levels.  With the factoring turned off
(MAX_TRIAL out of reach) these scans give the same answers, slower
(README, "Limits and cost", has the times).

The benchmark's workloads barely reach a factored level, so they do not
bear on MAX_TRIAL: `solve` and `tabulate` never do, and `scan` walks only
the 8 exceptional values.  One pass of `scan-window`'s 40 3000-wide
windows walks 0-1 n (seeds 1-5) and factors 0, 0, 0, 17 and 0 levels, so
MAX_TRIAL's case rests on the scans above.

The paper's memoized recursion, which the walk is tested against, lives
in `reference`; nothing here calls it.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd, isqrt

from .core import DomainError, Solution

# Re-exported, here and in `exceptional`, only for tests/test_acceptance.py,
# bench/workloads.py and bench/tracing.py, which read or patch them by name.
from .reference import MemoStore, build_s2, calc_shell, reference_solution  # noqa: F401
from .reference import SolutionKey, SolutionSet

# Largest n `calc_solution` accepts, where a solve takes over a second
# (README, "Limits and cost").
MAX_SOLVE_N = 10**8
# Width of the aligned blocks of n that `calc_solution` fills a memo with.
# On the `tabulate` benchmark (200 consecutive n from 784-816, one memo;
# `--seconds 5`, seeds 1-5, medians) widths 32, 64 and 128 read 5.5, 5.6
# and 5.3 ms, within noise, and 256 read 7.1 ms (6.9-9.5).  The work is the
# same: at 256 the 200 n lie in the one block [768, 1023], and in-process
# passes over them read 3.9-4.3 ms at every width.  What differs is the
# cyclic garbage collector: in the benchmark's larger heap a full
# collection (5-6 ms) fell inside the one call that files all 256 n in
# about half of the passes, and inside no call at 64; with the collector
# off, 256 read as 64.  At 10^6 a block of 64 costs 1.6 walks against 1.5
# for 32, so half as much per n, and at n = 800 a one-off call pays half
# what a block of 128 costs.
BLOCK = 64
# Largest n `walk_shells` accepts, and so the scan's limit: up to it a factored
# last level's m is below 2^64, where `is_prime` is exact.
MAX_SCAN_HI = 10**12
# Longest last-level range the walk trial-divides; past it the walk factors
# m.  On the scan survivors of 3000-wide windows at 3 * 10^7 and of the
# 10^6-wide window ending at 10^12, every value from 16 to 1024 took the
# same time within noise; with no factoring they took 2.5x and ~150x as long.
MAX_TRIAL = 1024
# Witness bases making the strong-pseudoprime test deterministic for all
# inputs below psi_12 = 318 665 857 834 031 151 167 461 (about 3.2 * 10^23),
# the least strong pseudoprime to all twelve (Sorenson and Webster, 2015),
# which covers the full 64-bit range; `is_prime` also trial-divides by them
# first, and so does `_prime_factors`.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Fewer suffice for smaller inputs: the first 4 below 3 215 031 751 and the
# first 7 below 341 550 071 728 321, the least strong pseudoprimes to those
# bases (Jaeschke, 1993).
_MR_SHORT = ((3_215_031_751, _MR_WITNESSES[:4]), (341_550_071_728_321, _MR_WITNESSES[:7]))


def is_prime(m: int) -> bool:
    """Deterministic primality test, exact for all m < 2^64."""
    if m < 2:
        return False
    for p in _MR_WITNESSES:
        if m == p:
            return True
        if m % p == 0:
            return False
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = next((w for bound, w in _MR_SHORT if m < bound), _MR_WITNESSES)
    for a in witnesses:
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


def _rho(m: int) -> int:
    """A proper divisor of m, an odd composite with no prime factor <= 37,
    by Pollard's rho with Floyd's cycle search.

    Starts at x = y = 2 with x -> x^2 + c, c = 1, 2, ...: the same m always
    takes the same steps.
    """
    c = 1
    while True:
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % m
            y = (y * y + c) % m
            y = (y * y + c) % m
            g = gcd(x - y, m)
        if g != m:
            return g
        c += 1


def _prime_factors(m: int) -> list[int]:
    """The prime factors of m >= 1, with multiplicity, in no set order."""
    factors = []
    for q in _MR_WITNESSES:
        while not m % q:
            factors.append(q)
            m //= q
    rest = [m] if m > 1 else []
    while rest:
        f = rest.pop()
        if is_prime(f):
            factors.append(f)
        else:
            d = _rho(f)
            rest += (d, f // d)
    return factors


def _divisors(m: int, low: int, top: int, p: int) -> list[int]:
    """The divisors d of m >= 1 with low <= d <= top and d = -1 (mod p),
    ascending."""
    divisors = [1]
    factors = _prime_factors(m)
    for q in set(factors):
        powers = [q**e for e in range(factors.count(q) + 1)]
        divisors = [d * power for d in divisors for power in powers if d * power <= top]
    return sorted(d for d in divisors if d >= low and (d + 1) % p == 0)


def walk_shells(n: int, first: int, last: int, limit: int = 0) -> list[Solution]:
    """The members of S_r(n), first <= r <= last, for 2 <= n <= MAX_SCAN_HI
    and first >= 2, in depth-first order (one shell's come out ascending by
    non-unit components, S_2's basic solution first); only the first
    `limit` if limit > 0.  Shells above floor(log2 n) + 1 are empty, so
    `last` is cut there.

    A member has components x_1 <= ... <= x_r >= 2 whose product equals
    their sum plus the n - r units.  The walk extends ascending prefixes
    and bounds the product: under a prefix with product p and sum s, the
    L components still to place are all >= x, and p*prod(y) - sum(y) only
    grows with each y, so a completion exists only if
    p*x^L - L*x <= s + n - r, a tighter form of the bound that no common
    value exceeds 2n.  For the last two components x <= w,
    p*x*w = s + x + w + n - r, so w = (s + x + n - r) / (p*x - 1).  That is
    an integer exactly when d = p*x - 1 divides m = p*(s + n - r) + 1, and
    the bound with L = 2, which is w >= x, reads d <= isqrt(m); so a prefix
    of r - 2 components solves the last level of shell r by one remainder
    per x.  For r = 2 the prefix is empty and the last level reads off the
    divisors d <= isqrt(n-1) of n-1.

    One walk builds every shell asked for.  A prefix's children extend it
    by one component x >= its last; a child serves the shells
    max(r + 1, first) ... last and is visited while the bound of the
    shallowest of them holds.  That is the loosest of their bounds: with L
    components still to place in shell r', p*x^L - L*x <= s + n - r' reads
    p*x^L - L*(x - 1) <= s + n - r + 2, and the left side grows with L.
    With first = last the walk is one shell's walk, bounded by that
    shell's own bound.

    When the last level spans more than MAX_TRIAL values of d, the walk
    factors m instead and takes its divisors d = -1 (mod p) in the same
    range, ascending, so it finds the same members in the same order.  A
    prime m has only 1 and m as divisors, and 1 is in the range only for
    the empty prefix.  Such an m stays below 2^64, where `is_prime` is
    exact, for n <= MAX_SCAN_HI:

    - the range spans more than MAX_TRIAL steps of p from low >= 1, so
      sqrt(m) >= top >= low + MAX_TRIAL*p > MAX_TRIAL*p;
    - a prefix's sum is at most its product, s <= p (a + b <= a*b for
      a, b >= 2), and r >= 2, so m <= p*(p + n - 2) + 1 < p*(n + p);
    - so m < sqrt(m)*(n + p)/MAX_TRIAL, that is
      m*MAX_TRIAL^2 < (n + p)^2, with p < n/(MAX_TRIAL^2 - 1).  At
      n = 10^12 that is p < 953 675 and m < 9.6*10^17 < 2^64.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if n > MAX_SCAN_HI or first < 2:
        raise DomainError(f"need n <= {MAX_SCAN_HI} and first >= 2, got ({n}, {first})")
    last = min(last, n.bit_length())
    if first > last:
        return []
    found: list[Solution] = []
    new = tuple.__new__  # a Solution without the Python-level __new__ of a namedtuple

    def visit(prefix: tuple[int, ...], p: int, s: int, lo: int, r: int) -> bool:
        # the prefix has r - 2 components, p their product and s their sum
        if r < first:
            child = first
        else:
            child = r + 1
            num = s + n - r
            m = p * num + 1
            low, top = p * lo - 1, isqrt(m)
            steps = range(low, top + 1, p)
            if len(steps) > MAX_TRIAL:
                steps = _divisors(m, low, top, p)
            for d in steps:
                if not m % d:
                    x = (d + 1) // p
                    found.append(new(Solution, (prefix + (x, (num + x) // d), n - r)))
                    if len(found) == limit:
                        return True
        if child <= last:
            left = child - r + 2  # components still to place in shell `child`, x included
            num = s + n - child
            x = lo
            while p * x**left - left * x <= num:
                if visit(prefix + (x,), p * x, s + x, x, r + 1):
                    return True
                x += 1
        return False

    visit((), 1, 0, 2, 2)
    del visit  # its closure refers to it: free the pair now, not at the next gc pass
    return found


def _solve_block(lo: int, hi: int) -> list[list[Sequence[Solution]]]:
    """The members of S_r(n) for lo <= n <= hi, as shells[r - 2][n - lo],
    r = 2 ... floor(log2 hi) + 1, for 2 <= lo <= hi <= MAX_SOLVE_N and at
    most BLOCK values of n: a list, or an empty tuple if there are none.

    The walk of `walk_shells` bounded by hi instead of by one n.  Under a
    prefix of r - 2 components (product p, sum s), a member with last
    components x <= y has n = d*y - s - x + r, d = p*x - 1, so the n that
    (prefix, x) reaches step by d from p*x^2 - 2*x - s + r (y = x), and x
    runs while that is <= hi, that is d <= isqrt(p*(s + hi - r) + 1).
    One remainder per x gives the least of them >= lo, and each member
    from there on costs O(1).
    """
    if lo < 2:
        raise DomainError(f"n must be >= 2, got {lo}")
    if not lo <= hi <= MAX_SOLVE_N or hi - lo >= BLOCK:
        raise DomainError(f"need lo <= hi <= {MAX_SOLVE_N}, at most {BLOCK} wide, got ({lo}, {hi})")
    last = hi.bit_length()
    width = hi - lo + 1
    new = tuple.__new__  # a Solution without the Python-level __new__ of a namedtuple
    # each n starts with one shared empty tuple, most of a block's, and gets a
    # list at its first member
    shells = [[()] * width for _ in range(last - 1)]

    def visit(prefix: tuple[int, ...], p: int, s: int, start: int, r: int) -> None:
        # the prefix has r - 2 components, p their product and s their sum
        row = shells[r - 2]
        k = r - s - lo
        for x in range(start, (isqrt(p * (s + hi - r) + 1) + 1) // p + 1):
            d = p * x - 1
            t = (k - x) % d  # lo + t is the least n >= lo that d*y - x - s + r hits
            if t < width:
                n, y = lo + t, (lo + t + x + s - r) // d
                if y < x:
                    n, y = n + (x - y) * d, x
                while n <= hi:
                    member = new(Solution, (prefix + (x, y), n - r))
                    if row[n - lo]:
                        row[n - lo].append(member)
                    else:
                        row[n - lo] = [member]
                    n, y = n + d, y + 1
        if r < last:
            num = s + hi - r - 1
            x = start
            while p * x**3 - 3 * x <= num:
                visit(prefix + (x,), p * x, s + x, x, r + 1)
                x += 1

    visit((), 1, 0, 2, 2)
    del visit
    return shells


def calc_solution(n: int, memo: MemoStore | None = None) -> set[Solution]:
    """All ESP solutions for n variables, for 2 <= n <= MAX_SOLVE_N: the
    union of S_r(n) for r = 2 ... floor(log2 n) + 1.

    Without a memo, from one `walk_shells` pass over every shell.  With
    one, from its entries S_r(n) under SolutionKey(n, r), each read
    through `memo.get`; if any is missing, the aligned block of BLOCK
    values of n that holds n is solved by `_solve_block` first, and all
    its sets are filed.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if n > MAX_SOLVE_N:
        raise DomainError(f"n must be <= {MAX_SOLVE_N}, got {n}")
    if memo is None:
        return set(walk_shells(n, 2, n.bit_length()))
    # a SolutionKey is the tuple (n, r), so a plain tuple finds its entry
    shells = range(2, n.bit_length() + 1)
    sets = [memo.get((n, r)) for r in shells]
    if None in sets:
        start = n - n % BLOCK
        lo, hi = max(start, 2), min(start + BLOCK - 1, MAX_SOLVE_N)
        new = tuple.__new__  # a SolutionKey without the Python-level __new__ of a namedtuple
        for r, row in enumerate(_solve_block(lo, hi), 2):
            for m in range(max(lo, 1 << (r - 1)), hi + 1):  # r <= floor(log2 m) + 1
                key = new(SolutionKey, (m, r))
                memo[key] = SolutionSet(key, row[m - lo])
        sets = [memo.get((n, r)) for r in shells]
    return set().union(*[entry.solutions for entry in sets])
