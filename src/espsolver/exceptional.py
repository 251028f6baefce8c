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

`scan_exceptional` works segment by segment.  A segmented Eratosthenes
sieve flags the n with n-1 prime (n = 2 included: n-1 = 1) and the n with
2n-1 prime; the first flags are the live n, and with the Sophie Germain
filter on, a live n needs both.  Every progression with step
p*x - 1 <= MAX_STEP then clears the n it hits, each of which has a proven
non-basic solution.  What is left is decided by `find_first_nonbasic`,
which stops at the first non-basic solution that the solver's
product-bounded walk (`solver.walk_shell`) yields.  Clearing and walking
are both exact, so the answer does not depend on MAX_STEP or SEGMENT.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import compress
from math import isqrt

from .base_sets import is_prime
from .core import DomainError, Solution, is_basic
from .solver import MemoStore, calc_shell, walk_shell

# Progressions with a larger step are left to the per-n walk.
MAX_STEP = 128
# Width of one sieve segment: bounds the memory of a scan and is the unit
# of work handed to each worker.
SEGMENT = 1 << 16
# Largest hi `scan_exceptional` accepts. A 3000-wide window there takes
# 0.1-0.2 s; the base primes, and each segment's pass over them, grow like
# sqrt(hi).
MAX_SCAN_HI = 10**12


def is_sophie_germain(p: int) -> bool:
    """True iff p and 2p+1 are both prime."""
    return is_prime(p) and is_prime(2 * p + 1)


def find_first_nonbasic(n: int, memo: MemoStore | None = None) -> Solution | None:
    """Return some non-basic ESP solution for n variables, or None.

    When n-1 is composite, S_2(n) has a second element, and the smallest
    one is returned without touching a higher shell.  When n = 2 or n-1 is
    prime, S_2(n) holds only the basic solution, so the answer is the
    first member `walk_shell` finds in r = 3, 4, ..., floor(log2 n) + 1.
    """
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if n > 2 and not is_prime(n - 1):
        if memo is None:
            memo = MemoStore()
        s2 = calc_shell(n, 2, memo)
        return min(
            (s for s in s2 if not is_basic(s)), key=lambda s: s.nonunit, default=None
        )
    for r in range(3, n.bit_length() + 1):
        hit = next(walk_shell(n, r), None)
        if hit is not None:
            return hit
    return None


def is_exceptional(n: int, memo: MemoStore | None = None) -> bool:
    """True iff the basic solution is the only ESP solution for n."""
    return find_first_nonbasic(n, memo) is None


@dataclass
class ScanReport:
    """Outcome of an exceptional-value scan over [lo, hi].

    `sg_candidates` counts the n with n = 2 or n-1 a Sophie Germain prime;
    `walked` counts the n left to `find_first_nonbasic` after the sieve.
    """

    lo: int
    hi: int
    sg_candidates: int
    exceptional: list[int] = field(default_factory=list)
    elapsed_ms: float = 0.0
    walked: int = 0

    def as_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "sg_candidates": self.sg_candidates,
            "walked": self.walked,
            "exceptional": self.exceptional,
            "elapsed_ms": self.elapsed_ms,
        }


def _progressions(max_step: int) -> tuple[tuple[int, int], ...]:
    """(step, first n) of the r >= 3 progressions with step <= max_step.

    Progressions that share a step and a residue class are merged into the
    one that starts first, which hits all the n the others hit.
    """
    first: dict[tuple[int, int], int] = {}

    def extend(p: int, s: int, r: int, lo: int) -> None:
        # p, s: product and sum of an ascending prefix of r - 2 components
        x = lo
        while p * x - 1 <= max_step:
            if r >= 3:
                step, n0 = p * x - 1, p * x * x - s - 2 * x + r
                key = (step, n0 % step)
                first[key] = min(first.get(key, n0), n0)
            if p * x * x - 1 <= max_step:
                extend(p * x, s + x, r + 1, x)
            x += 1

    extend(1, 0, 2, 2)
    return tuple(sorted((step, n0) for (step, _), n0 in first.items()))


_PROGRESSIONS = _progressions(MAX_STEP)


def _primes_upto(m: int) -> list[int]:
    """The primes <= m, by a sieve of Eratosthenes."""
    flags = bytearray(b"\x01") * (m + 1)
    flags[:2] = bytes(min(2, m + 1))
    for q in range(2, isqrt(m) + 1):
        if flags[q]:
            _clear(flags, q * q, q)
    return list(compress(range(m + 1), flags))


def _clear(flags: bytearray, start: int, step: int) -> None:
    """Zero flags[start], flags[start + step], ... to the end."""
    if start < len(flags):
        flags[start::step] = bytes((len(flags) - 1 - start) // step + 1)


def _scan_segment(
    bounds: tuple[int, int], use_sg_filter: bool, primes: list[int]
) -> tuple[list[int], int, int]:
    """Scan [a, b]: the exceptional n, the Sophie Germain count, and how many
    n the walk decided.  `primes` must hold every prime <= isqrt(2b)."""
    a, b = bounds
    size = b - a + 1
    shell2 = bytearray(b"\x01") * size  # n-1 is 1 or prime, for n = a + i
    germain = bytearray(b"\x01") * size  # 2n-1 is prime
    for q in primes:
        qq = q * q
        if qq > 2 * b - 1:
            break
        # n-1 is a multiple of q from q^2 on
        _clear(shell2, qq - a + 1 if qq >= a - 1 else (1 - a) % q, q)
        if q > 2:
            # 2n-1 is an odd multiple of q from q^2 on: n = (q^2+1)/2 + kq
            n = (qq + 1) // 2
            _clear(germain, n - a if n >= a else (n - a) % q, q)
    # the flags are bytes of 0 or 1, so each n flagged in both is one bit
    both = int.from_bytes(shell2, "little") & int.from_bytes(germain, "little")
    sg_count = both.bit_count()
    for step, n0 in _PROGRESSIONS:
        _clear(shell2, n0 - a if n0 >= a else (n0 - a) % step, step)
    survivors = list(compress(range(a, b + 1), shell2))
    if use_sg_filter:
        survivors = [n for n in survivors if germain[n - a]]
    exceptional = [n for n in survivors if find_first_nonbasic(n) is None]
    return exceptional, sg_count, len(survivors)


def scan_exceptional(
    lo: int, hi: int, use_sg_filter: bool = True, workers: int = 1
) -> ScanReport:
    """Scan [lo, hi] for exceptional values, for 2 <= lo <= hi <= MAX_SCAN_HI.

    With the filter on, only n = 2 and n with n-1 a Sophie Germain prime
    are live; with it off, every n with n-1 prime is, and the progressions
    and the walk decide each of them.  The filter is a proven necessary
    condition, so both modes find the same values, and `sg_candidates` is
    the filtered count in both.  The range is cut into segments of about
    SEGMENT values, at least one per worker; `workers` must be >= 1, is
    capped at the number of CPUs, and above 1 maps the segments over a
    process pool.
    """
    if lo < 2 or lo > hi:
        raise DomainError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    if hi > MAX_SCAN_HI:
        raise DomainError(f"hi must be <= {MAX_SCAN_HI}, got {hi}")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    start = time.perf_counter()
    width = hi - lo + 1
    count = min(width, max(workers, -(-width // SEGMENT)))
    segments = [
        (lo + i * width // count, lo + (i + 1) * width // count - 1) for i in range(count)
    ]
    task = partial(
        _scan_segment, use_sg_filter=use_sg_filter, primes=_primes_upto(isqrt(2 * hi))
    )
    if workers > 1 and count > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(task, segments))
    else:
        parts = list(map(task, segments))
    exceptional = [n for part, _, _ in parts for n in part]
    sg_count = sum(sg for _, sg, _ in parts)
    walked = sum(w for _, _, w in parts)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return ScanReport(lo, hi, sg_count, exceptional, elapsed_ms, walked)
