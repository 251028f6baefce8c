import concurrent.futures
import pickle

import pytest

from espsolver import exceptional, reference, solver


class FakePool:
    """Stands in for ProcessPoolExecutor: records its size and the pickled
    size of each mapped function, and runs the function in-process after a
    pickle round trip, as a worker would receive it."""

    sizes: list[int] = []
    task_bytes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        task = pickle.dumps(fn)
        self.task_bytes.append(len(task))
        return list(map(pickle.loads(task), items))


@pytest.fixture
def fake_pool(monkeypatch):
    """Put `FakePool`, with empty records, in place of ProcessPoolExecutor
    and return it."""
    monkeypatch.setattr(FakePool, "sizes", [])
    monkeypatch.setattr(FakePool, "task_bytes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return FakePool


@pytest.fixture
def refuse_the_reference(monkeypatch):
    """Make the recursion's entry points raise, in `reference` and in the
    modules that re-export them, so any engine call into it fails."""

    def refuse(*args, **kwargs):
        raise AssertionError("the engine reached the reference recursion")

    for module in (reference, solver, exceptional):
        for name in ("calc_shell", "build_s2", "MemoStore"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
