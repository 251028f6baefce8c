"""Search for exceptional values: n whose only ESP solution is (2, n; n-2).

The known exceptional values are {2, 3, 4, 6, 24, 114, 174, 444}.  For
n > 2 to be exceptional, n-1 must be prime (otherwise S_2(n) already has
a second element), and in fact a Sophie Germain prime; scans use that as
a cheap necessary-condition filter.  Each candidate is then checked by
`find_first_nonbasic`, which stops at the first non-basic solution that
the solver's product-bounded walk (`solver.walk_shell`) yields.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .base_sets import is_prime
from .core import DomainError, Solution, is_basic
from .solver import MemoStore, calc_shell, walk_shell


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
    """Outcome of an exceptional-value scan over [lo, hi]."""

    lo: int
    hi: int
    sg_candidates: int
    exceptional: list[int] = field(default_factory=list)
    elapsed_ms: float = 0.0

    def as_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "sg_candidates": self.sg_candidates,
            "exceptional": self.exceptional,
            "elapsed_ms": self.elapsed_ms,
        }


def _candidates(lo: int, hi: int, use_sg_filter: bool) -> tuple[list[int], int]:
    """The n in [lo, hi] to check, and how many of them pass the SG filter."""
    # n=2 is exceptional yet n-1=1 is not prime; always a candidate.
    out = [2] if lo <= 2 <= hi else []
    rest = range(max(lo, 3), hi + 1)
    if use_sg_filter:
        out.extend(n for n in rest if is_sophie_germain(n - 1))
        return out, len(out)
    sg_count = len(out)
    for n in rest:
        if is_prime(n - 1):
            out.append(n)
            sg_count += is_prime(2 * n - 1)
    return out, sg_count


def _scan_chunk(candidates: list[int]) -> list[int]:
    memo = MemoStore()
    return [n for n in candidates if find_first_nonbasic(n, memo) is None]


def scan_exceptional(
    lo: int, hi: int, use_sg_filter: bool = True, workers: int = 1
) -> ScanReport:
    """Scan [lo, hi] for exceptional values.

    With the filter on, only n=2 and n with n-1 a Sophie Germain prime are
    tested; with it off, every n with n-1 prime is.  The filter is a
    proven necessary condition, so both modes find the same values, and
    `sg_candidates` is the filtered count in both.  `workers` must be >= 1
    and is capped at the number of CPUs.
    """
    if lo < 2 or lo > hi:
        raise DomainError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    start = time.perf_counter()
    candidates, sg_count = _candidates(lo, hi, use_sg_filter)
    if workers > 1 and len(candidates) > 1:
        chunk = -(-len(candidates) // workers)
        chunks = [candidates[i : i + chunk] for i in range(0, len(candidates), chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_scan_chunk, chunks)
        exceptional = sorted(n for part in parts for n in part)
    else:
        exceptional = _scan_chunk(candidates)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return ScanReport(lo, hi, sg_count, exceptional, elapsed_ms)
