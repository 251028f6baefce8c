import importlib

import espsolver

PUBLIC = {
    # the engine
    "calc_solution",
    "walk_shell",
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
    "is_prime": "espsolver.exceptional",
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
