"""Spans and counters recorded from outside the espsolver package.

`Tracer.installed()` replaces public functions at the name each caller
looks them up by (a module global or a class attribute) with wrappers that
record a span per call, and swaps in a MemoStore subclass that counts memo
hits and misses. Nothing in `src/` changes; leaving the block restores
every original.

A span is (parent, name, start, end), kept in flat arrays until
`layer_metrics` turns them into per-layer numbers. A span's self time is
its duration minus the durations of its direct children, so the self times
of all spans add up to the durations of the root spans, which are the
benchmark's own operations.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from math import isqrt
from time import perf_counter

from espsolver import cli, core, exceptional, solver

SHELL_RS = range(2, 11)  # r for solver.shell_ms.r*; the workloads keep n < 1024, so r <= 10
EXIT_RS = range(2, 9)  # exceptional.exit_r8 counts every exit at r >= 8


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.stores: list[solver.MemoStore] = []
        self.trial_divisions = 0
        self.scanned_n = 0
        self.exits: Counter[int] = Counter()
        self.exceptional_found = 0
        self.memo_class = _counting_store(self)

    def _id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def call(self, label: str, fn, *args, **kwargs):
        """Call fn as one span named `label`."""
        return self._wrap(label, fn)(*args, **kwargs)

    def _span(self, name_id: int, fn, args, kwargs):
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.name.append(name_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[sid] = perf_counter()
            self._stack.pop()

    def _wrap(self, label: str, fn):
        name_id = self._id(label)
        on_call = {
            "base_sets.build_s2": self._count_s2,
            "exceptional.scan_exceptional": self._count_scan,
        }.get(label)

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            return self._span(name_id, fn, args, kwargs)

        return wrapper

    def _wrap_shell(self, fn):
        # calc_shell(k, r, memo): one span name per r, so self time splits by r.
        ids = {r: self._id(f"solver.calc_shell.r{r}") for r in range(2, 64)}

        def wrapper(k, r, *args, **kwargs):
            return self._span(ids[r], fn, (k, r) + args, kwargs)

        return wrapper

    def _wrap_check(self, fn):
        name_id = self._id("exceptional.find_first_nonbasic")

        def wrapper(*args, **kwargs):
            hit = self._span(name_id, fn, args, kwargs)
            if hit is None:
                self.exceptional_found += 1
            else:
                self.exits[min(hit.r, EXIT_RS[-1])] += 1
            return hit

        return wrapper

    def _count_s2(self, args):
        # build_s2(n) trial-divides n-1 by 1..isqrt(n-1): computed, not counted.
        self.trial_divisions += isqrt(args[0] - 1)

    def _count_scan(self, args):
        lo, hi = args[:2]
        self.scanned_n += hi - lo + 1

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions and install the counting MemoStore."""
        patches = [
            (solver, "calc_shell", self._wrap_shell(solver.calc_shell)),
            (exceptional, "calc_shell", self._wrap_shell(exceptional.calc_shell)),
            (solver, "build_s2", self._wrap("base_sets.build_s2", solver.build_s2)),
            (solver, "MemoStore", self.memo_class),
            (exceptional, "MemoStore", self.memo_class),
            (exceptional, "is_prime", self._wrap("base_sets.is_prime", exceptional.is_prime)),
            (
                exceptional,
                "is_sophie_germain",
                self._wrap("exceptional.is_sophie_germain", exceptional.is_sophie_germain),
            ),
            (exceptional, "find_first_nonbasic", self._wrap_check(exceptional.find_first_nonbasic)),
            (cli, "calc_solution", self._wrap("solver.calc_solution", cli.calc_solution)),
            (
                cli,
                "scan_exceptional",
                self._wrap("exceptional.scan_exceptional", cli.scan_exceptional),
            ),
            (core.Solution, "as_dict", self._wrap("core.format", core.Solution.as_dict)),
            (core.Solution, "as_text", self._wrap("core.format", core.Solution.as_text)),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, new in patches:
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, old in saved:
                setattr(owner, attr, old)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers for everything recorded by this tracer.

        `wall_s` is the traced pass; `trace.coverage_ratio` is the share of
        it that the root spans, and so the self times of all spans, cover.
        """
        n = len(self.start)
        labels = [self.labels[i] for i in self.name]
        dur = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += dur[i]
        total: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        roots = filter_s = cli_inner = 0.0
        filter_calls = 0
        for i, label in enumerate(labels):
            total[label] += dur[i]
            self_s[label] += dur[i] - children[i]
            calls[label] += 1
            p = self.parent[i]
            parent = labels[p] if p >= 0 else None
            if parent is None:
                roots += dur[i]
            elif parent == "cli.main" and label != "core.format":
                cli_inner += dur[i]
            if label == "exceptional.is_sophie_germain" or (
                label == "base_sets.is_prime" and parent != "exceptional.is_sophie_germain"
            ):
                filter_s += dur[i]
                filter_calls += 1

        tests = sum(s.extend_evaluations for s in self.stores)
        hits = sum(s.hits for s in self.stores)
        misses = sum(s.misses for s in self.stores)
        entries = empty = found = 0
        for store in self.stores:
            for key, value in store.items():
                entries += 1
                empty += len(value) == 0
                found += len(value) if key.r >= 3 else 0
        candidates = calls["exceptional.find_first_nonbasic"]
        check_s = total["exceptional.find_first_nonbasic"]

        m = {"solver.calc_solution_ms": total["solver.calc_solution"] * 1000.0}
        for r in SHELL_RS:
            m[f"solver.shell_ms.r{r}"] = self_s[f"solver.calc_shell.r{r}"] * 1000.0
        m.update({
            "solver.divisibility_tests": tests,
            "solver.memo_misses": misses,
            "solver.memo_hit_ratio": _ratio(hits, hits + misses),
            "solver.memo_entries": entries,
            "solver.memo_empty_ratio": _ratio(empty, entries),
            "solver.extend_yield": _ratio(found, tests),
            "base_sets.build_s2_calls": calls["base_sets.build_s2"],
            "base_sets.build_s2_ms": total["base_sets.build_s2"] * 1000.0,
            "base_sets.trial_divisions": self.trial_divisions,
            "base_sets.is_prime_calls": calls["base_sets.is_prime"],
            "base_sets.is_prime_ms": total["base_sets.is_prime"] * 1000.0,
            "exceptional.filter_ms": filter_s * 1000.0,
            "exceptional.filter_calls_per_n": _ratio(filter_calls, self.scanned_n),
            "exceptional.candidates": candidates,
            "exceptional.filter_pass_ratio": _ratio(candidates, filter_calls),
            "exceptional.check_ms": check_s * 1000.0,
            "exceptional.check_ms_per_candidate": _ratio(check_s * 1000.0, candidates),
        })
        for r in EXIT_RS:
            m[f"exceptional.exit_r{r}"] = self.exits[r]
        m.update({
            "exceptional.exceptional_found": self.exceptional_found,
            "cli.main_ms": total["cli.main"] * 1000.0,
            "cli.overhead_ms": (total["cli.main"] - cli_inner) * 1000.0,
            "core.format_ms": total["core.format"] * 1000.0,
            "trace.coverage_ratio": _ratio(roots, wall_s),
        })
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _counting_store(tracer: Tracer):
    class CountingMemoStore(solver.MemoStore):
        """MemoStore that counts lookups and registers itself with the tracer."""

        def __init__(self):
            super().__init__()
            self.hits = 0
            self.misses = 0
            tracer.stores.append(self)

        def get(self, key):
            found = super().get(key)
            if found is None:
                self.misses += 1
            else:
                self.hits += 1
            return found

    return CountingMemoStore
