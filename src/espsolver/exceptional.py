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

`scan_exceptional` works segment by segment, and apart from n = 2, 3, 4
it looks only at the n = 6k.  For n >= 5 with n-1 prime, n-1 is a prime
other than 2 and 3, so n is even and n != 1 (mod 3).  If n = 2 (mod 3),
then 3 divides 2n-1 > 3, so n-1 is no Sophie Germain prime, and the
progression of step 3 from n = 5 (solution (2, 2, 2)) clears n.  So every
n >= 5 that is live, or counted as a Sophie Germain candidate, is a
multiple of 6.  Per segment, a sieve of Eratosthenes over k flags the k
with 6k-1 prime (the live n = 6k) and the k with 12k-1 prime (2n-1 prime,
which the Sophie Germain filter also requires).  Its base primes q >= 5
are cached once per process, each with the k at which q divides 6k-1 and
12k-1.  Every progression with step p*x - 1 <= MAX_STEP, mapped onto the
k once at import, then clears the n it hits, each of which has a proven
non-basic solution.  What is left is decided by `find_first_nonbasic`,
which stops at the first non-basic solution that the solver's
product-bounded walk (`solver.walk_shell`) yields.  Clearing and walking
are both exact, so the answer does not depend on MAX_STEP or SEGMENT.
`is_exceptional` checks one n the same way, for n <= MAX_SCAN_HI.
"""

from __future__ import annotations

import os
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import compress
from math import gcd, isqrt

from .core import DomainError, Solution

# Re-exported only for bench/tracing.py; see the note in `solver`.
from .reference import MemoStore, calc_shell  # noqa: F401
from .solver import walk_shell

# Progressions with a larger step are left to the per-n walk.
MAX_STEP = 128
# Width of one sieve segment: bounds the memory of a scan and is the unit
# of work handed to each worker.
SEGMENT = 1 << 16
# Largest hi `scan_exceptional` accepts and largest n `find_first_nonbasic`
# checks. A 3000-wide window there takes ~0.04 s once the base primes are
# cached, which takes ~0.1 s the first time; both grow like sqrt(hi).
MAX_SCAN_HI = 10**12
# Witness bases making the strong-pseudoprime test deterministic for all
# inputs below 3.3 * 10^24, which covers the full 64-bit range; `is_prime`
# also trial-divides by them first.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def is_sophie_germain(p: int) -> bool:
    """True iff p and 2p+1 are both prime."""
    return is_prime(p) and is_prime(2 * p + 1)


def find_first_nonbasic(n: int) -> Solution | None:
    """Return some non-basic ESP solution for n variables, or None, for
    2 <= n <= MAX_SCAN_HI.

    When n-1 is composite, the smallest non-basic member of S_2(n) is the
    second item of `walk_shell(n, 2)`.  Otherwise (n = 2, or n-1 prime,
    which `is_prime` settles far faster than the walk) S_2(n) holds only
    the basic solution, and the answer is the first member `walk_shell`
    finds in r = 3, 4, ..., floor(log2 n) + 1.
    """
    if not 2 <= n <= MAX_SCAN_HI:
        raise DomainError(f"n must be in [2, {MAX_SCAN_HI}], got {n}")
    if n > 2 and not is_prime(n - 1):
        shell = walk_shell(n, 2)
        next(shell)  # the basic solution comes first
        return next(shell)
    for r in range(3, n.bit_length() + 1):
        hit = next(walk_shell(n, r), None)
        if hit is not None:
            return hit
    return None


def is_exceptional(n: int) -> bool:
    """True iff the basic solution is the only ESP solution for n <= MAX_SCAN_HI."""
    return find_first_nonbasic(n) is None


@dataclass
class ScanReport:
    """Outcome of an exceptional-value scan over [lo, hi].

    `sg_candidates` counts the n with n = 2 or n-1 a Sophie Germain prime;
    `walked` counts the n left to `find_first_nonbasic` after the sieve.
    """

    lo: int
    hi: int
    sg_candidates: int
    walked: int = 0
    exceptional: list[int] = field(default_factory=list)
    elapsed_ms: float = 0.0

    def as_dict(self) -> dict:
        """The fields in declaration order, the key order of `--json`."""
        return asdict(self)


def _progressions(max_step: int) -> tuple[tuple[int, int], ...]:
    """(step, first k) of the r >= 3 progressions with step <= max_step,
    restricted to the n = 6k.

    A progression n0, n0 + d, ... hits n = 6k exactly for the k >= n0/6 in
    one class modulo d / gcd(d, 6), or for no k.  Progressions that share
    that step and class are merged into the one that starts first.
    """
    first: dict[tuple[int, int], int] = {}

    def extend(p: int, s: int, r: int, lo: int) -> None:
        # p, s: product and sum of an ascending prefix of r - 2 components
        x = lo
        while p * x - 1 <= max_step:
            if r >= 3:
                d, n0 = p * x - 1, p * x * x - s - 2 * x + r
                g = gcd(d, 6)
                if n0 % g == 0:
                    # 6k = n0 (mod d) exactly for k = res (mod step)
                    step = d // g
                    res = n0 // g * pow(6 // g, -1, step) % step
                    k = -(-n0 // 6)
                    k += (res - k) % step
                    first[step, res] = min(first.get((step, res), k), k)
            if p * x * x - 1 <= max_step:
                extend(p * x, s + x, r + 1, x)
            x += 1

    extend(1, 0, 2, 2)
    return tuple(sorted((step, k) for (step, _), k in first.items()))


_PROGRESSIONS = _progressions(MAX_STEP)

# The sieve's base primes q >= 5, the bound they are complete to, and for
# each q the k with 6k = 1 and with 12k = 1 (mod q): the n = 6k at which q
# divides n-1 and 2n-1.  One cache per process, grown by `_base_primes`;
# 32-bit arrays keep it near 1.3 MB at MAX_SCAN_HI.
_BASE: tuple[int, array, array, array] = (0, array("i"), array("i"), array("i"))


def _base_primes(m: int) -> tuple[array, array, array]:
    """The cached base primes, with their two k-residues, holding every
    prime 5 <= q <= m.

    A larger m re-sieves the cache to at least twice its bound, but never
    past isqrt(2 * MAX_SCAN_HI) unless m asks for it.
    """
    global _BASE
    limit, qs, r6, r12 = _BASE
    if limit < m:
        limit = max(m, min(2 * limit, isqrt(2 * MAX_SCAN_HI)))
        flags = bytearray(b"\x01") * (limit + 1)
        for q in range(2, isqrt(limit) + 1):
            if flags[q]:
                flags[q * q :: q] = bytes(len(range(q * q, limit + 1, q)))
        qs = array("i", compress(range(5, limit + 1), flags[5:]))
        r6 = array("i", (((6 - q % 6) * q + 1) // 6 for q in qs))
        r12 = array("i", (((12 - q % 12) * q + 1) // 12 for q in qs))
        _BASE = limit, qs, r6, r12
    return qs, r6, r12


def _sieve(k0: int, size: int, zeros: memoryview) -> tuple[bytearray, bytearray]:
    """Flags of 6k-1 prime and of 12k-1 prime, for k = k0 ... k0 + size - 1,
    k0 >= 1.  `zeros` holds at least `size` zero bytes."""
    top = isqrt(12 * (k0 + size) - 13)
    qs, r6, r12 = _base_primes(top)
    count = bisect_right(qs, top)
    few = bisect_left(qs, size, 0, count)  # from qs[few] on, one hit at most
    shell2 = bytearray(b"\x01") * size
    germain = bytearray(b"\x01") * size
    for flags, res in ((shell2, r6), (germain, r12)):
        for q, r in zip(qs[:few], res):
            i = (r - k0) % q
            flags[i::q] = zeros[: (size - 1 - i) // q + 1]
        hits = [i for q, r in zip(qs[few:count], res[few:count]) if (i := (r - k0) % q) < size]
        for i in hits:
            flags[i] = 0
    # a base prime that is itself some 6k-1 or 12k-1 here was cleared with
    # its multiples: set its flag back
    for q in qs[bisect_left(qs, 6 * k0 - 1, 0, count) : count]:
        k = (q + 1) // 6 - k0
        if q % 6 == 5 and k < size:
            shell2[k] = 1
        k = (q + 1) // 12 - k0
        if q % 12 == 11 and 0 <= k < size:
            germain[k] = 1
    return shell2, germain


def _scan_segment(
    bounds: tuple[int, int], use_sg_filter: bool
) -> tuple[list[int], int, int]:
    """Scan [a, b]: the exceptional n, the Sophie Germain count, and how many
    n the walk decided."""
    a, b = bounds
    # n = 2, 3, 4 are live and Sophie Germain; any other live n is some 6k
    survivors = [n for n in (2, 3, 4) if a <= n <= b]
    sg_count = len(survivors)
    k0 = (max(a, 6) + 5) // 6
    size = b // 6 - k0 + 1
    if size > 0:
        zeros = memoryview(bytes(size))
        shell2, germain = _sieve(k0, size, zeros)
        sg = int.from_bytes(germain, "little")
        sg_count += (int.from_bytes(shell2, "little") & sg).bit_count()
        for step, k in _PROGRESSIONS:
            i = k - k0 if k >= k0 else (k - k0) % step
            if i < size:
                shell2[i::step] = zeros[: (size - 1 - i) // step + 1]
        if use_sg_filter:
            shell2 = (int.from_bytes(shell2, "little") & sg).to_bytes(size, "little")
        survivors += compress(range(6 * k0, 6 * (k0 + size), 6), shell2)
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
    _base_primes(isqrt(2 * hi))  # forked workers inherit the cache
    task = partial(_scan_segment, use_sg_filter=use_sg_filter)
    if workers > 1 and count > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(task, segments))
    else:
        parts = list(map(task, segments))
    exceptional = [n for part, _, _ in parts for n in part]
    sg_count = sum(sg for _, sg, _ in parts)
    walked = sum(w for _, _, w in parts)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return ScanReport(lo, hi, sg_count, walked, exceptional, elapsed_ms)
