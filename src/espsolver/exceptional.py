"""Search for exceptional values: n whose only ESP solution is (2, n; n-2).

The known exceptional values are {2, 3, 4, 6, 24, 114, 174, 444} (OEIS
A033179).  Scans rest on one identity.  Take a prefix of r-2 non-unit
components with product p and sum s; the last two components x <= y of
an r-component solution for n satisfy

    (p*x - 1) * (p*y - 1) = p*n + p*(s - r) + 1.

So for a fixed prefix and x, the n that have such a solution are the
arithmetic progression that starts at p*x^2 - s - 2x + r (y = x) and
steps by p*x - 1 (y -> y + 1).  Two cases of it are prime conditions:

- the empty prefix (r = 2) reads (x-1)(y-1) = n-1.  x = 2 is the basic
  solution, so S_2(n) has a second member exactly when n-1 is composite;
- the prefix (2) (r = 3) reads (2x-1)(2y-1) = 2n-1, so n has a solution
  (2, x, y) whenever 2n-1 is composite.  For n > 2 to be exceptional,
  n-1 must therefore be a Sophie Germain prime.

`scan_exceptional` looks only at n = 2, 3, 4 and the n = 6k.  For n >= 5
with n-1 prime, n-1 is a prime other than 2 and 3, so n is even and
n != 1 (mod 3).  If n = 2 (mod 3), then 3 divides 2n-1 > 3, so n-1 is no
Sophie Germain prime, and the progression of step 3 from n = 5 (solution
(2, 2, 2)) clears n.  So every n >= 5 with n-1 a Sophie Germain prime,
the live n that the scan counts and checks, is a multiple of 6.  Two more
prefixes are exact conditions on such an n = 6k; the scan does not use
them:

- the prefix (2, 2) (r = 4) reads (4x-1)(4y-1) = 4n+1 with x >= 2.  3
  does not divide 4n+1 = 24k+1, so its divisors = 3 (mod 4) pair off from
  7 up: n has a solution (2, 2, x, y) exactly when 4n+1 has a prime
  factor = 3 (mod 4);
- the prefix (3) (r = 3) reads (3x-1)(3y-1) = 3n+1 with x >= 3.  If
  12k-1 is prime, 5 does not divide 3n+1 = 18k+1 (else k = 3 (mod 5) and
  5 | 12k-1), so its divisors = 2 (mod 3), all odd, pair off from 11 up:
  n has a solution (3, x, y) exactly when 3n+1 has a prime factor
  = 2 (mod 3).  Not so without 12k-1 prime: at n = 108, 3n+1 = 5^2*13
  has only the pair (5, 65).

Every scan runs one plan:

- Flags: one bytearray over k, set where 6k-1 and 12k-1 are both prime
  (n-1 a Sophie Germain prime: the live n = 6k).  `_sieve`, a sieve of
  Eratosthenes over k, clears the k with 6k-1 composite and then, in the
  same array, those with 12k-1 composite, from the base primes q >= 5 up
  to sqrt(2*hi), cached once per process with the k at which each q
  divides 6k-1 and 12k-1.  The Sophie Germain count is read off the flags
  before the progressions and the walk read them.  Near MAX_SCAN_HI the
  sieve passes over all the base primes however narrow the window.
- Progressions: each one of step p*x - 1 <= MAX_STEP clears the n it hits,
  each of which has a proven non-basic solution.  In k, the progressions
  are rows, a class of k modulo a step from a first k.  `_rows` builds
  them once, into one table per step that holds each class's first k,
  and drops each row that clears no live n that the others leave:
  1 145 rows at MAX_STEP = 512.  That build is most of the first scan in
  a process that has a segment to scan; a scan of no n = 6k, such as
  [7, 11], builds none.  Every segment applies all of them, in one of
  two ways.  A segment of at most 64 k a dense row that holds fewer live
  k than the 193 dense rows, such as a narrow window, looks up each live
  k in all 1 145 rows, the dense ones first (`every`): so few lookups
  cost less than the slices (`_few_live`).  Any other segment slices the
  193 rows of step up to DENSE_STEP = 128 across it (`_rows`' `dense`),
  and looks up the 952 of larger step, one table at a time, for each n
  that the slices leave (`sparse`): few n are left, while a slice writes
  across the whole segment to clear them.
- Segments: the K k of [lo, hi] are cut into ceil(K / SEGMENT) segments of
  SEGMENT k (2^22 values of n), whatever the workers.  They bound the
  memory of a scan: a segment's bytearray of flags takes ~0.7 MB.  A pool
  starts only for two or more of them.

What is left is decided by `find_first_nonbasic`, which stops at the first
non-basic solution that the solver's product-bounded walk
(`solver.walk_shells`) finds.  Clearing and walking are both exact, so the
answer does not depend on the plan; `walked`, the count of n left to the
walk, depends on MAX_STEP only.  `is_exceptional` checks one n the same
way.  Scans and checks stop at MAX_SCAN_HI, the walk's limit.  What a
scan costs, and what a larger MAX_STEP would, is measured in README
("Limits and cost", "CLI").
"""

from __future__ import annotations

import os
import time
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cache
from itertools import compress
from math import gcd, isqrt

from .core import DomainError, Solution

# Re-exported only for bench/tracing.py; see the note in `solver`.
from .reference import MemoStore, calc_shell  # noqa: F401
from .solver import MAX_SCAN_HI, is_prime, walk_shells

# Progressions of n with a larger step are left to the per-n walk.
MAX_STEP = 512
# Rows of step in k up to DENSE_STEP are sliced over a whole segment; the
# rows of larger step are looked up for each n that is left.
DENSE_STEP = 128
# Width in k of one sieve segment, 2^22 values of n: bounds the memory of a
# scan and is the unit of work handed to each worker.
SEGMENT = (1 << 22) // 6


def is_sophie_germain(p: int) -> bool:
    """True iff p and 2p+1 are both prime; exact for p < 2^63, where 2p+1 is
    below 2^64, so `is_prime` is exact."""
    return is_prime(p) and is_prime(2 * p + 1)


def find_first_nonbasic(n: int) -> Solution | None:
    """Return some non-basic ESP solution for n variables, or None, for
    2 <= n <= MAX_SCAN_HI.

    Every shell is read by a one-shell `walk_shells` that stops early.
    When n-1 is composite, the smallest non-basic member of S_2(n) is its
    second member, after the basic solution: the walk of S_2 stops there.
    Otherwise (n = 2, or n-1 prime, which `is_prime` settles far faster
    than the walk) S_2(n) holds only the basic solution, and the answer is
    the first member of the lowest non-empty shell r = 3, 4, ...,
    floor(log2 n) + 1.
    """
    if not 2 <= n <= MAX_SCAN_HI:
        raise DomainError(f"n must be in [2, {MAX_SCAN_HI}], got {n}")
    if n > 2 and not is_prime(n - 1):
        return walk_shells(n, 2, 2, limit=2)[1]
    for r in range(3, n.bit_length() + 1):
        hit = walk_shells(n, r, r, limit=1)
        if hit:
            return hit[0]
    return None


def is_exceptional(n: int) -> bool:
    """True iff the basic solution is the only ESP solution for n <= MAX_SCAN_HI."""
    return find_first_nonbasic(n) is None


class ScanReport(namedtuple("ScanReport", "lo hi sg_candidates walked exceptional elapsed_ms")):
    """Outcome of an exceptional-value scan over [lo, hi].

    `sg_candidates` counts the n with n = 2 or n-1 a Sophie Germain prime;
    `walked` counts the n that the flags and progressions left to
    `find_first_nonbasic`: it moves with the rows' bound MAX_STEP, the
    answer does not.
    Like `Solution`, it is an immutable tuple, equal to the plain tuple of
    its six fields.
    """

    __slots__ = ()

    def as_dict(self) -> dict:
        """The fields in constructor order, the key order of `--json`.

        `exceptional` is a copy, so changing the dict leaves the report as it is.
        """
        return {**self._asdict(), "exceptional": list(self.exceptional)}


@cache
def _rows(
    max_step: int,
) -> tuple[list[tuple[int, int]], list[tuple[int, list[int]]], list[tuple[int, list[int]]]]:
    """The rows that the r >= 3 progressions with step <= max_step make of
    the n = 6k, cached by that bound.  The walk files each row straight
    into the table of its step t: a list, indexed by k mod t, that holds
    the first k of that class's row, or 0, so a row holds k exactly when
    0 < table[k % t] <= k.  At MAX_STEP the tables take about 310 KB, an
    8-byte slot per class and an int of its own per first k; 32-bit arrays
    took 148 KB, but built an int on every read.  Three parts are read off
    those tables:

    - `every`: a pair (t, table) for each step that keeps a row, ascending,
      so that the steps that hold the most k are tried first.  A segment
      with few live k (`_few_live`) looks each of them up in these alone;
    - `sparse`: the tail of `every` of step above DENSE_STEP, the very same
      lists, in which the other segments look up each k the slices leave;
    - `dense`: the rows of step up to DENSE_STEP as pairs (step, first k),
      by step and then by class, which those segments slice.

    A progression n0, n0 + d, ... hits n = 6k exactly for the k >= n0/6 in
    one class modulo d / gcd(d, 6), or for no k.  Progressions that share
    that step and class are merged into one row, the class's k from the
    first that any of them hits.  Two kinds of row are dropped, since
    neither clears a live n that the kept rows leave; both are decided
    against the rows as merged, before any is cleared:

    - a row that holds no live k: if 1 < g < 6f-1 for f its first k and
      g = gcd(6f-1, step), then g divides 6k-1 for every k of the row, and
      6k-1 >= 6f-1 > g, so 6k-1 is composite;
    - a row that lies inside another: if the row of some proper divisor t
      of the step, in the class of the row's k modulo t, starts no later,
      it holds every k of the row.  If that row is dropped too, it is
      for holding no live k or for lying inside a row of a still smaller
      step, so the live k of the row stay covered.
    """
    tables: list[list[int] | None] = [None] * (max_step + 1)  # by step
    filled: list[tuple[int, int]] = []  # (step, class) as the walk first fills it

    def extend(p: int, s: int, r: int, lo: int) -> None:
        # p, s: product and sum of an ascending prefix of r - 2 >= 1 components
        x = lo
        while (d := p * x - 1) <= max_step:
            g = gcd(d, 6)
            n0 = p * x * x - s - 2 * x + r
            if n0 % g == 0:
                # 6k = n0 (mod d) exactly for k = res (mod step)
                step = d // g
                res = n0 // g * pow(6 // g, -1, step) % step
                k = -(-n0 // 6)
                k += (res - k) % step
                table = tables[step]
                if table is None:
                    table = tables[step] = [0] * step
                if not table[res]:
                    filled.append((step, res))
                    table[res] = k
                elif k < table[res]:
                    table[res] = k
            if p * x * x - 1 <= max_step:
                extend(p * x, s + x, r + 1, x)
            x += 1

    for x in range(2, isqrt(max_step + 1) + 1):
        extend(x, x, 3, x)
    del extend  # its closure refers to it and holds the tables: free them with the frame
    # by step, the tables of its proper divisors that are steps too
    inner: list[list[tuple[int, list[int]]]] = [[] for _ in tables]
    for t, table in enumerate(tables):
        if table:
            for m in range(2 * t, max_step + 1, t):
                inner[m].append((t, table))
    # decided against the rows as merged: no live k, or inside a row of smaller step
    dropped = [
        (step, res)
        for step, res in filled
        if 1 < gcd(6 * (k := tables[step][res]) - 1, step) < 6 * k - 1
        or any(0 < table[k % t] <= k for t, table in inner[step])
    ]
    for step, res in dropped:
        tables[step][res] = 0
    every = [(t, tables[t]) for t in sorted({step for step, res in filled if tables[step][res]})]
    dense = [(t, k) for t, table in every if t <= DENSE_STEP for k in table if k]
    return dense, [(t, table) for t, table in every if t > DENSE_STEP], every


# The sieve's base primes q >= 5, the bound they are complete to, and for
# each q the k with 6k = 1 and with 12k = 1 (mod q): the n = 6k at which q
# divides n-1 and 2n-1.  One cache per process, grown by `_base_primes`.
# As lists of ints it takes about 13 MB at MAX_SCAN_HI, an int object per
# value, against 1.3 MB as 32-bit arrays; the lists are read without
# building an int, which makes a `scan-window` pass about 15 % faster.
_BASE: tuple[int, list[int], list[int], list[int]] = (0, [], [], [])


def _base_primes(m: int) -> tuple[list[int], list[int], list[int]]:
    """The cached base primes, with their two k-residues, holding every
    prime 5 <= q <= m and maybe a few more.  A larger m re-sieves the cache
    to m + m // 64, so that ascending scans re-sieve it seldom; `_form`
    passes over only the primes up to its own root."""
    global _BASE
    limit, qs, r6, r12 = _BASE
    if limit < m:
        limit = m + m // 64
        flags = bytearray(b"\x01") * (limit + 1)
        for q in range(2, isqrt(limit) + 1):
            if flags[q]:
                flags[q * q :: q] = bytearray(len(range(q * q, limit + 1, q)))
        qs = list(compress(range(5, limit + 1), flags[5:]))
        r6 = [((6 - q % 6) * q + 1) // 6 for q in qs]
        r12 = [((12 - q % 12) * q + 1) // 12 for q in qs]
        _BASE = limit, qs, r6, r12
    return qs, r6, r12


def _form(c: int, k0: int, qs: list[int], residues: list[int], flags: bytearray) -> bytearray:
    """Clear the flag of each k with c*k-1 composite in `flags`, the flags of
    k = k0 ... k0 + size - 1 with size = len(flags), and return `flags`.
    The base primes are those q <= isqrt(c*(k0 + size - 1) - 1) in `qs`,
    with the k at which each divides c*k-1 in `residues`.  Sieving only
    clears, so another form's flags end as the AND of the two, and a base
    prime's own flag is restored only where it was set before the pass:
    71 = 12*6 - 1 is a base prime, but 35 = 6*6 - 1 is composite, so k = 6
    stays cleared when the 12k-1 pass runs over the 6k-1 flags.  Each q is
    cleared by one of three loops: a slice for each q < size/3, a loop of
    stores for each other q < size, and one compare for each q >= size,
    which has one hit at most.  The loop of stores clears every hit of
    any q, so the split at size/3 only decides which primes are sliced.
    A slice costs 0.25-0.5 us a prime however few bytes it writes, the
    stores of a prime with at most three hits about half that.  Each part
    was measured faster than its alternative: one slice loop for every q
    cost +50-100 % of `_sieve`'s time, a slice for each q with two or
    three hits +7-16 % at 10^11 and +18-30 % at 10^12 on a full segment,
    the one-hit primes in the loop of stores +2-4 % of `scan-window`'s
    time (each of their hits pays one more add and compare), a check per
    hit in place of the restoring pass +15-17 %, and 64-bit first k, to
    start each q at q*q, +5-12 %.  These were measured while `qs` and
    the residues were 32-bit arrays; on lists, the one-hit fold costs
    +4.6 % of `scan-window`'s time."""
    size = len(flags)
    count = bisect_right(qs, isqrt(c * (k0 + size - 1) - 1))
    # a slice costs least below qs[few] (q < size/3), the loop of stores up
    # to qs[one], and one compare from there on (q >= size, one hit at most)
    few = bisect_left(qs, -(-size // 3), 0, count)
    one = bisect_left(qs, size, few, count)
    # a base prime that is itself some c*k-1 here is cleared as its own multiple
    start = bisect_left(qs, c * k0 - 1, 0, count)
    own = [i for q in qs[start:count] if q % c == c - 1 and flags[i := (q + 1) // c - k0]]
    for q, a in zip(qs[:few], residues):
        i = (a - k0) % q
        flags[i::q] = bytearray((size - 1 - i) // q + 1)
    for q, a in zip(qs[few:one], residues[few:one]):
        i = (a - k0) % q
        while i < size:
            flags[i] = 0
            i += q
    for q, a in zip(qs[one:count], residues[one:count]):
        if (i := (a - k0) % q) < size:
            flags[i] = 0
    for i in own:
        flags[i] = 1
    return flags


def _sieve(k0: int, size: int) -> bytearray:
    """Flags of 6k-1 and 12k-1 both prime (n-1 a Sophie Germain prime), for
    k = k0 ... k0 + size - 1, k0 >= 1: the 12k-1 sieve runs over the 6k-1
    flags in place."""
    qs, r6, r12 = _base_primes(isqrt(12 * (k0 + size) - 13))
    return _form(12, k0, qs, r12, _form(6, k0, qs, r6, bytearray(b"\x01") * size))


def _few_live(size: int, live: int, rows: int) -> bool:
    """True when a segment of `size` k spans at most 64 k a dense row and
    holds fewer `live` k than there are dense rows, `rows`: then looking
    each live k up in every row (0.34-0.55 us a k) costs less than slicing
    the dense rows across the segment (48-106 us on a narrow one).  A wider
    segment is sliced whatever it holds: near MAX_SCAN_HI, 16 000 k hold
    about 145 live k, and the two ways cost about the same there (README,
    the table of the two ways)."""
    return size <= 64 * rows and live < rows


def _scan_segment(segment: tuple[int, int]) -> tuple[list[int], int, int]:
    """Scan the n = 6k for k = k0 ... k0 + size - 1, k0 >= 1: the exceptional
    n, the Sophie Germain count, and how many n the walk decided.  The count
    is taken from the flags before any slice.  The rows of `_rows(MAX_STEP)`
    clear n.  If the segment is narrow and holds fewer live k than there
    are dense rows (`_few_live`), each live k is looked up in every row
    (`every`); otherwise the dense rows are sliced, and the others
    (`sparse`) looked up for each n left.  Both ways clear the same n."""
    k0, size = segment
    flags = _sieve(k0, size)
    sg_count = flags.count(1)
    dense, sparse, every = _rows(MAX_STEP)
    if _few_live(size, sg_count, len(dense)):
        tables = every
    else:
        tables = sparse
        for step, k in dense:
            i = k - k0 if k >= k0 else (k - k0) % step
            if i < size:
                flags[i::step] = bytearray((size - 1 - i) // step + 1)
    survivors = []
    i = flags.find(1)
    while i >= 0:
        k = k0 + i
        for step, first in tables:
            if 0 < first[k % step] <= k:
                break
        else:
            survivors.append(6 * k)
        i = flags.find(1, i + 1)
    exceptional = [n for n in survivors if find_first_nonbasic(n) is None]
    return exceptional, sg_count, len(survivors)


def scan_exceptional(
    lo: int, hi: int, use_sg_filter: bool = True, workers: int = 1
) -> ScanReport:
    """Scan [lo, hi] for exceptional values, for 2 <= lo <= hi <= MAX_SCAN_HI.

    Only n = 2 and the n with n-1 a Sophie Germain prime, a proven
    necessary condition, are live.  `use_sg_filter` is ignored: every scan
    reads the Sophie Germain flags.  It stays for the callers that pass it,
    as the third positional argument or by keyword.  The plan (see the
    module docstring) is fixed by [lo, hi] alone: its k-window is cut into
    segments of SEGMENT k, and every segment reads the same rows.
    `workers` must be >= 1 and only sizes the pool: the segments are mapped
    over min(workers, segments, CPUs) processes, and in-process below two.
    """
    if lo < 2 or lo > hi:
        raise DomainError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    if hi > MAX_SCAN_HI:
        raise DomainError(f"hi must be <= {MAX_SCAN_HI}, got {hi}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    start = time.perf_counter()
    # the k-window: the n = 6k in [max(lo, 6), hi]
    k0, end = (max(lo, 6) + 5) // 6, hi // 6 + 1
    segments = [(k, min(SEGMENT, end - k)) for k in range(k0, end, SEGMENT)]
    # the base primes, sized once for the whole range; forked workers inherit them
    _base_primes(isqrt(2 * hi))
    # n = 2, 3, 4 are live and Sophie Germain; any other live n is some 6k
    small = [n for n in (2, 3, 4) if lo <= n <= hi]
    parts = [([n for n in small if find_first_nonbasic(n) is None], len(small), len(small))]
    processes = min(workers, len(segments))
    if processes > 1:
        processes = min(processes, os.cpu_count() or 1)
    if processes > 1:
        from concurrent.futures import ProcessPoolExecutor

        _rows(MAX_STEP)  # built before the fork, so that the workers inherit them
        with ProcessPoolExecutor(max_workers=processes) as pool:
            parts += pool.map(_scan_segment, segments)
    else:
        parts += map(_scan_segment, segments)
    exceptional = [n for part, _, _ in parts for n in part]
    sg_count = sum(sg for _, sg, _ in parts)
    walked = sum(w for _, _, w in parts)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return ScanReport(lo, hi, sg_count, walked, exceptional, elapsed_ms)
