"""Command-line front end.

    esp solve N [--json]
    esp verify NMAX
    esp scan LO HI [--sg-filter] [--json] [--workers K]

Exit codes: 0 success, 1 verification mismatch, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import oracle
from .core import DomainError, Solution
from .exceptional import scan_exceptional
from .solver import calc_solution


def _display_order(solutions: set[Solution]) -> list[Solution]:
    # Group by r descending, then by components descending, matching the
    # shell order r = m+1 ... 2 of the solver.
    return sorted(
        solutions, key=lambda s: (s.r, tuple(reversed(s.nonunit))), reverse=True
    )


def cmd_solve(args: argparse.Namespace) -> int:
    solutions = calc_solution(args.n)
    if args.json:
        doc = {
            "n": args.n,
            "solutions": [s.as_dict() for s in _display_order(solutions)],
        }
        print(json.dumps(doc))
    else:
        for s in _display_order(solutions):
            print(s.as_text())
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if not 2 <= args.nmax <= oracle.MAX_N:
        raise DomainError(f"NMAX must be in [2, {oracle.MAX_N}], got {args.nmax}")
    checked = passed = 0
    for n in range(2, args.nmax + 1):
        checked += 1
        ok = calc_solution(n) == oracle.brute_force_solutions(n)
        passed += ok
        print(f"n={n}: {'PASS' if ok else 'FAIL'}")
    print(f"{passed}/{checked} PASS")
    return 0 if passed == checked else 1


def cmd_scan(args: argparse.Namespace) -> int:
    report = scan_exceptional(args.lo, args.hi, args.sg_filter, args.workers)
    if args.json:
        print(json.dumps(report.as_dict()))
    else:
        values = " ".join(map(str, report.exceptional)) or "(none)"
        print(f"exceptional: {values}")
        print(f"Sophie Germain candidates: {report.sg_candidates}")
        print(f"walked: {report.walked}")
        print(f"elapsed: {report.elapsed_ms:.1f} ms")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esp",
        description="Exact solver for the equal-sum-product problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="list all solutions for n variables")
    p_solve.add_argument("n", type=int)
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="cross-check against brute force")
    p_verify.add_argument("nmax", type=int)
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="scan a range for exceptional values")
    p_scan.add_argument("lo", type=int)
    p_scan.add_argument("hi", type=int)
    p_scan.add_argument("--sg-filter", action="store_true")
    p_scan.add_argument("--json", action="store_true")
    p_scan.add_argument("--workers", type=int, default=1)
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
