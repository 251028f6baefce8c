# Command-line front end. Its docstring, like `esp -h`, is generated below
# from COMMANDS and FLAGS, the tables that `parse` reads argv against.

from __future__ import annotations

import sys
from collections.abc import Callable

from . import oracle
from .core import DomainError, Solution
from .exceptional import scan_exceptional
from .solver import calc_solution

Args = dict[str, int]


def _display_order(solutions: set[Solution]) -> list[Solution]:
    # Group by r descending, then by components descending: the paper's
    # order, in which its recursion lists the shells r = m+1 ... 2.
    return sorted(solutions, key=lambda s: (len(s.nonunit), s.nonunit[::-1]), reverse=True)


def cmd_solve(args: Args) -> int:
    order = _display_order(calc_solution(args["N"]))
    if args["--json"]:
        # The text json.dumps writes for {"n": N, "solutions": [as_dict(),
        # ...]}: a list of ints reads the same in repr as in JSON.
        members = ", ".join(['{"nonunit": %s, "units": %d}' % (list(x), u) for x, u in order])
        print('{"n": %d, "solutions": [%s]}' % (args["N"], members))
    else:
        print("\n".join([s.as_text() for s in order]))
    return 0


def cmd_verify(args: Args) -> int:
    nmax = args["NMAX"]
    if not 2 <= nmax <= oracle.MAX_N:
        raise DomainError(f"NMAX must be in [2, {oracle.MAX_N}], got {nmax}")
    passed = 0
    for n in range(2, nmax + 1):
        ok = calc_solution(n) == oracle.brute_force_solutions(n)
        passed += ok
        print(f"n={n}: {'PASS' if ok else 'FAIL'}")
    print(f"{passed}/{nmax - 1} PASS")
    return 0 if passed == nmax - 1 else 1


def cmd_scan(args: Args) -> int:
    report = scan_exceptional(args["LO"], args["HI"], workers=args["--workers"])
    if args["--json"]:
        # The text json.dumps writes for report.as_dict(): an int, a float
        # and a list of ints read the same in repr as in JSON.
        print("{%s}" % ", ".join(['"%s": %r' % pair for pair in zip(report._fields, report)]))
    else:
        values = " ".join(map(str, report.exceptional)) or "(none)"
        print(f"exceptional: {values}")
        print(f"Sophie Germain candidates: {report.sg_candidates}")
        print(f"walked: {report.walked}")
        print(f"elapsed: {report.elapsed_ms:.1f} ms")
    return 0


# Each flag: the name of the integer it takes (None for a switch, which is
# False unless given), its default, and what it does.
FLAGS = {
    "--json": (None, False, "print one JSON document"),
    "--workers": ("K", 1, "scan in K processes, at most one per CPU and per segment"),
}

# Each command: its handler, its integer operands, the flags it accepts and
# what it does. The handler reads each operand and flag by its word as spelled
# here and in FLAGS: args["N"], args["--json"].
COMMANDS: dict[str, tuple[Callable[[Args], int], tuple[str, ...], tuple[str, ...], str]] = {
    "solve": (cmd_solve, ("N",), ("--json",), "list all solutions for n = N"),
    "verify": (
        cmd_verify,
        ("NMAX",),
        (),
        f"check n = 2 ... NMAX <= {oracle.MAX_N} against brute force",
    ),
    "scan": (
        cmd_scan,
        ("LO", "HI"),
        ("--json", "--workers"),
        "list the exceptional n in [LO, HI]",
    ),
}


def usage(commands: list[str]) -> str:
    """The usage line of each of `commands`, generated from the tables."""
    lines = []
    for name in commands:
        _, operands, flags, _ = COMMANDS[name]
        words = ["esp", name, *operands]
        for flag in flags:
            metavar = FLAGS[flag][0]
            words.append(f"[{flag}]" if metavar is None else f"[{flag} {metavar}]")
        lines.append(" ".join(words))
    return "usage: " + "\n       ".join(lines)


def help_text(commands: list[str]) -> str:
    """The usage of `commands`, what each of them and of their flags does,
    the grammar's rules and the exit codes."""
    flags = dict.fromkeys(flag for name in commands for flag in COMMANDS[name][2])
    blocks = [
        [(name, COMMANDS[name][3]) for name in commands],
        [(f"{flag} {FLAGS[flag][0] or ''}".rstrip(), FLAGS[flag][2]) for flag in flags],
    ]
    width = max(len(left) for block in blocks for left, _ in block)
    sections = [
        usage(commands),
        "Exact solver for the equal-sum-product problem.",
        *("\n".join(f"  {left:<{width}}  {right}" for left, right in block) for block in blocks),
        "Flags may come anywhere after the command, a value as --workers K\n"
        "or --workers=K; flags are not abbreviated. Exit codes: 0 success,\n"
        "1 verification mismatch, 2 usage or domain error.",
    ]
    return "\n\n".join(filter(None, sections))


__doc__ = f"""Command-line front end: the `esp` command.

{help_text(list(COMMANDS))}
"""


def _usage_error(commands: list[str], message: str) -> SystemExit:
    """Print the usage of `commands` and `message` on stderr, and return
    the SystemExit(2) for the caller to raise."""
    print(usage(commands), f"esp: error: {message}", sep="\n", file=sys.stderr)
    return SystemExit(2)


def _integer(command: str, word: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise _usage_error([command], f"argument {word}: invalid int value: {value!r}") from None


def parse(argv: list[str]) -> tuple[Callable[[Args], int], Args]:
    """Read argv against COMMANDS: the command's handler and its args.

    Prints the help and raises SystemExit(0) for -h or --help; prints the
    usage and an error and raises SystemExit(2) for any other argv that
    the grammar does not accept.
    """
    if argv[:1] in (["-h"], ["--help"]):
        print(help_text(list(COMMANDS)))
        raise SystemExit(0)
    if not argv or argv[0] not in COMMANDS:
        found = f"invalid choice: {argv[0]!r}" if argv else "no command"
        raise _usage_error(list(COMMANDS), f"{found} (choose from {', '.join(COMMANDS)})")
    name, *words = argv
    handler, operands, flags, _ = COMMANDS[name]
    args = {flag: FLAGS[flag][1] for flag in flags}
    values = []
    rest = iter(words)
    for word in rest:
        if word in ("-h", "--help"):
            print(help_text([name]))
            raise SystemExit(0)
        flag, equals, value = word.partition("=")
        if flag not in flags:
            if word.startswith("--"):
                raise _usage_error([name], f"unrecognized arguments: {word}")
            values.append(word)
        elif FLAGS[flag][0] is None:
            if equals:
                raise _usage_error([name], f"argument {flag}: takes no value, got {value!r}")
            args[flag] = True
        else:
            if not equals:
                value = next(rest, None)
                if value is None:
                    raise _usage_error([name], f"argument {flag}: expected one argument")
            args[flag] = _integer(name, flag, value)
    if len(values) < len(operands):
        missing = ", ".join(operands[len(values):])
        raise _usage_error([name], f"the following arguments are required: {missing}")
    if len(values) > len(operands):
        extra = " ".join(values[len(operands):])
        raise _usage_error([name], f"unrecognized arguments: {extra}")
    for operand, value in zip(operands, values):
        args[operand] = _integer(name, operand, value)
    return handler, args


def main(argv: list[str] | None = None) -> int:
    handler, args = parse(sys.argv[1:] if argv is None else argv)
    try:
        return handler(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
