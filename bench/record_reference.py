"""Record reference.json: solution count and digest for every n the solve
and tabulate workloads can draw.

    python3 bench/record_reference.py

The reference was recorded once from the paper's memoized recursion
(`calc_solution` with one MemoStore shared over the sweep). It is the
fixed answer key for later solver changes: do not re-record it from a
changed solver.
"""

import json
import sys

from run import use_checkout_source

LO, HI = 400, 1300


def main() -> None:
    use_checkout_source()
    from espsolver.solver import MemoStore, calc_solution
    from workloads import REFERENCE_PATH, solution_digest

    memo = MemoStore()
    solutions = {}
    for n in range(LO, HI + 1):
        found = calc_solution(n, memo)
        solutions[str(n)] = [len(found), solution_digest(found)]
    # One entry per line, so a diff shows which n changed.
    lines = ",\n".join(f"{json.dumps(n)}: {json.dumps(v)}" for n, v in solutions.items())
    REFERENCE_PATH.write_text(
        f'{{"source": "espsolver.solver.calc_solution", "lo": {LO}, "hi": {HI},\n'
        f'"solutions": {{\n{lines}\n}}}}\n'
    )
    print(f"wrote {len(solutions)} entries to {REFERENCE_PATH.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
