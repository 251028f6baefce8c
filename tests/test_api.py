import importlib
import pkgutil

import espsolver

PUBLIC = {
    # the engine
    "calc_solution",
    "walk_shells",
    "MAX_SOLVE_N",
    # the scan
    "scan_exceptional",
    "ScanReport",
    "find_first_nonbasic",
    "is_exceptional",
    "is_sophie_germain",
    # the value types
    "Solution",
    "validate",
    "common_value",
    "is_basic",
    "DomainError",
    "InvalidSolutionError",
    # the references
    "reference_solution",
    "brute_force_solutions",
}

# Names the package no longer exports, with the module that defines them.
DROPPED = {
    "MemoStore": "espsolver.reference",
    "SolutionKey": "espsolver.reference",
    "SolutionSet": "espsolver.reference",
    "build_s2": "espsolver.reference",
    "calc_shell": "espsolver.reference",
    "extend_candidate": "espsolver.reference",
    "j_bounds": "espsolver.reference",
    "is_prime": "espsolver.solver",
}


def test_all_is_the_public_api():
    assert len(espsolver.__all__) == len(PUBLIC) == 16
    assert set(espsolver.__all__) == PUBLIC
    for name in espsolver.__all__:
        assert getattr(espsolver, name) is not None, name


def test_dropped_names_import_from_their_home_module():
    for name, home in DROPPED.items():
        assert name not in espsolver.__all__
        module = importlib.import_module(home)
        assert getattr(module, name).__module__ == home, name


def test_no_module_defines_walk_shell():
    # `walk_shells(n, r, r)` is the one-shell walk
    for info in pkgutil.iter_modules(espsolver.__path__, "espsolver."):
        module = importlib.import_module(info.name)
        assert not hasattr(module, "walk_shell"), info.name
    assert not hasattr(espsolver, "walk_shell")
