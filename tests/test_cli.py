import json
import os
import subprocess
import sys

import pytest

import espsolver
from espsolver import exceptional
from espsolver.cli import main
from espsolver.core import Solution
from espsolver.exceptional import MAX_SCAN_HI, scan_exceptional
from espsolver.solver import MAX_SOLVE_N, calc_solution


class TestSolve:
    def test_solve_15(self, capsys):
        assert main(["solve", "15"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["(15,2;13)", "(8,3;13)"]

    def test_solve_2(self, capsys):
        assert main(["solve", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["(2,2;0)"]

    def test_solve_5_grouped_r_descending(self, capsys):
        main(["solve", "5"])
        out = capsys.readouterr().out.splitlines()
        assert out == ["(2,2,2;2)", "(5,2;3)", "(3,3;3)"]

    def test_solve_1_domain_error(self, capsys):
        assert main(["solve", "1"]) == 2
        err = capsys.readouterr().err
        assert "error" in err and ">= 2" in err

    @pytest.mark.parametrize("n", [MAX_SOLVE_N + 1, 10**18])
    def test_solve_above_limit_domain_error(self, capsys, n):
        assert main(["solve", str(n)]) == 2
        assert str(MAX_SOLVE_N) in capsys.readouterr().err

    def test_solve_non_integer_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "fifteen"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("n", [2, 5, 15, 24, 60])
    def test_json_round_trip(self, capsys, n):
        assert main(["solve", str(n), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == n
        parsed = {Solution.from_dict(d) for d in doc["solutions"]}
        assert parsed == calc_solution(n)

    @pytest.mark.parametrize("ns", [range(2, 2001), [10**4, 720720, 10**6]], ids=["2-2000", "large"])
    def test_output_is_byte_exact(self, capsys, ns):
        # the text and the json.dumps document of the members in the paper's
        # order, r descending and then components descending
        for n in ns:
            order = sorted(
                calc_solution(n), key=lambda s: (s.r, tuple(reversed(s.nonunit))), reverse=True
            )
            main(["solve", str(n), "--json"])
            doc = {"n": n, "solutions": [s.as_dict() for s in order]}
            assert capsys.readouterr().out == json.dumps(doc) + "\n", n
            main(["solve", str(n)])
            assert capsys.readouterr().out == "\n".join(s.as_text() for s in order) + "\n", n


class TestVerify:
    def test_verify_2(self, capsys):
        assert main(["verify", "2"]) == 0
        out = capsys.readouterr().out
        assert "n=2: PASS" in out
        assert "1/1 PASS" in out

    def test_verify_16(self, capsys):
        assert main(["verify", "16"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "15/15 PASS"
        assert all(line.endswith("PASS") for line in out)

    def test_verify_out_of_range(self, capsys):
        assert main(["verify", "100"]) == 2
        assert "error" in capsys.readouterr().err


class TestScan:
    def test_scan_text(self, capsys):
        assert main(["scan", "2", "1000", "--sg-filter"]) == 0
        out = capsys.readouterr().out
        assert "exceptional: 2 3 4 6 24 114 174 444" in out

    def test_scan_empty(self, capsys):
        assert main(["scan", "500", "1000", "--sg-filter"]) == 0
        assert "exceptional: (none)" in capsys.readouterr().out

    def test_scan_unfiltered_same_list(self, capsys):
        assert main(["scan", "2", "1000"]) == 0
        assert "exceptional: 2 3 4 6 24 114 174 444" in capsys.readouterr().out

    def test_scan_json(self, capsys):
        assert main(["scan", "2", "200", "--sg-filter", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["lo", "hi", "sg_candidates", "walked", "exceptional", "elapsed_ms"]
        assert doc["lo"] == 2 and doc["hi"] == 200
        assert doc["exceptional"] == [2, 3, 4, 6, 24, 114, 174]
        assert doc["sg_candidates"] >= len(doc["exceptional"])
        assert doc["elapsed_ms"] >= 0

    def test_scan_workers(self, capsys):
        assert main(["scan", "2", "1000", "--sg-filter", "--workers", "2"]) == 0
        assert "exceptional: 2 3 4 6 24 114 174 444" in capsys.readouterr().out

    def test_scan_bad_range(self, capsys):
        assert main(["scan", "9", "3"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_scan_workers_below_one(self, capsys, workers):
        assert main(["scan", "2", "100", "--workers", workers]) == 2
        assert "workers" in capsys.readouterr().err

    def test_scan_text_counts(self, capsys):
        assert main(["scan", "2", "1000", "--sg-filter"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "Sophie Germain candidates: 38" in out
        assert f"walked: {scan_exceptional(2, 1000, True).walked}" in out

    def test_scan_json_walked(self, capsys):
        assert main(["scan", "2", "1000", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["walked"] >= len(doc["exceptional"]) == 8

    @pytest.mark.parametrize(
        "lo,hi", [(2, 1000), (500, 1000), (7, 11), (2, 5), (3 * 10**7, 3 * 10**7 + 3000)]
    )
    @pytest.mark.parametrize("use_sg_filter", [False, True])
    def test_scan_json_is_byte_exact(self, capsys, lo, hi, use_sg_filter):
        # what json.dumps writes for the library's report of the same window
        # and mode, with the time the command took
        flags = ["--json", "--sg-filter"] if use_sg_filter else ["--json"]
        assert main(["scan", str(lo), str(hi), *flags]) == 0
        out = capsys.readouterr().out
        report = scan_exceptional(lo, hi, use_sg_filter)
        report = report._replace(elapsed_ms=json.loads(out)["elapsed_ms"])
        assert out == json.dumps(report.as_dict()) + "\n"

    def test_filter_defaults(self, capsys):
        # the command scans unfiltered unless given --sg-filter, the library
        # filtered unless given use_sg_filter=False; the filter leaves the
        # walk fewer n here
        assert main(["scan", "1000000", "3000000", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["walked"] == 6
        assert scan_exceptional(10**6, 3 * 10**6).walked == 4

    @pytest.mark.parametrize("hi", [MAX_SCAN_HI + 1, 10**18])
    def test_scan_above_limit_domain_error(self, capsys, hi):
        assert main(["scan", "2", str(hi)]) == 2
        assert str(MAX_SCAN_HI) in capsys.readouterr().err


EXCEPTIONAL = "exceptional: 2 3 4 6 24 114 174 444"


def exit_code_of(argv: list[str]) -> int:
    """The exit status `esp argv` ends with: main's return value, or the
    code of the SystemExit it raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# argv, exit code, texts on stdout, texts on stderr
PARITY = [
    ([], 2, [], ["usage: esp", "error:"]),
    (["-h"], 0, ["usage: esp", "solve", "verify", "scan"], []),
    (["solve", "-h"], 0, ["usage: esp solve", "--json"], []),
    (["verify", "--help"], 0, ["usage: esp verify"], []),
    (["scan", "--help"], 0, ["usage: esp scan", "--sg-filter", "--json", "--workers"], []),
    (["frob", "3"], 2, [], ["usage: esp", "error:", "'frob'"]),
    (["solve"], 2, [], ["usage: esp solve", "error:", "required"]),
    (["solve", "1", "2"], 2, [], ["usage: esp", "error: unrecognized arguments: 2"]),
    (["scan", "5"], 2, [], ["usage: esp scan", "error:", "required"]),
    (["solve", "fifteen"], 2, [], ["usage: esp solve", "invalid int value: 'fifteen'"]),
    (["solve", "15", "--sg-filter"], 2, [], ["error: unrecognized arguments: --sg-filter"]),
    (["solve", "--bogus", "15"], 2, [], ["error: unrecognized arguments: --bogus"]),
    (["--json", "solve", "15"], 2, [], ["usage: esp", "error:"]),
    (["solve", "--json", "15"], 0, ['"n": 15'], []),
    (["scan", "--json", "2", "1000"], 0, ['"exceptional": [2, 3, 4, 6, 24, 114, 174, 444]'], []),
    (["scan", "2", "--sg-filter", "1000"], 0, [EXCEPTIONAL, "candidates: 38"], []),
    (["scan", "2", "1000", "--workers", "2"], 0, [EXCEPTIONAL], []),
    (["scan", "2", "1000", "--workers=2"], 0, [EXCEPTIONAL], []),
    (["scan", "2", "1000", "--workers"], 2, [], ["usage: esp scan", "--workers", "expected one argument"]),
    (["scan", "2", "1000", "--workers", "x"], 2, [], ["--workers", "invalid int value: 'x'"]),
    (["scan", "2", "1000", "--json=1"], 2, [], ["usage: esp scan", "--json"]),
    (["solve", "-5"], 2, [], ["error: n must be >= 2, got -5"]),
    # Flags are not abbreviated: --sg is not --sg-filter.
    (["scan", "2", "1000", "--sg"], 2, [], ["error: unrecognized arguments: --sg"]),
]


@pytest.mark.parametrize(
    "argv,code,out_texts,err_texts", PARITY, ids=[" ".join(c[0]) or "(none)" for c in PARITY]
)
def test_cli_grammar(capsys, argv, code, out_texts, err_texts):
    assert exit_code_of(argv) == code
    out, err = capsys.readouterr()
    for text in out_texts:
        assert text in out
    for text in err_texts:
        assert text in err
    # Output goes to one stream only: results and help to stdout, errors
    # and usage after an error to stderr.
    assert not (err if code == 0 else out)


def test_help_is_the_module_docstring(capsys):
    # The usage and help come from one table, which also writes the
    # module's docstring.
    assert exit_code_of(["--help"]) == 0
    help_text = capsys.readouterr().out
    assert help_text.startswith("usage: esp solve N [--json]\n")
    assert "esp scan LO HI [--sg-filter] [--json] [--workers K]" in help_text
    assert help_text in espsolver.cli.__doc__


class TestWorkersCap:
    @pytest.mark.parametrize("cpus,expected", [(3, [3]), (1, []), (None, [])])
    def test_capped_at_cpu_count(self, capsys, monkeypatch, fake_pool, cpus, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(exceptional, "SEGMENT", 40)  # 166 k in 5 segments
        assert main(["scan", "2", "1000", "--sg-filter", "--workers", "64"]) == 0
        assert "exceptional: 2 3 4 6 24 114 174 444" in capsys.readouterr().out
        assert fake_pool.sizes == expected

    def test_task_pickles_small(self, monkeypatch, fake_pool):
        # A segment task carries the filter flag only; workers build or
        # inherit the base primes themselves.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(exceptional, "SEGMENT", 100)  # 500 k in 5 segments
        assert main(["scan", str(MAX_SCAN_HI - 3000), str(MAX_SCAN_HI), "--workers", "2"]) == 0
        assert fake_pool.sizes == [2]
        assert 0 < fake_pool.task_bytes[0] < 200


def test_import_loads_no_pool_machinery():
    # concurrent.futures (and multiprocessing, logging) load only when a
    # scan starts a pool, not with the command-line module.
    src = os.path.dirname(os.path.dirname(espsolver.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import espsolver.cli; "
        "print('concurrent.futures' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "False"


def added_modules(statement: str) -> set[str]:
    """The modules `statement` adds to a fresh interpreter of this Python,
    on top of what the interpreter and its `site` hooks load on their own."""
    src = os.path.dirname(os.path.dirname(espsolver.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        f"{statement}; print(' '.join(sorted(set(sys.modules) - before)))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def test_import_budget():
    # dataclasses loads inspect, ast, dis and tokenize, which together take
    # longer to import than the rest of the command-line module.
    cli = added_modules("import espsolver.cli")
    assert "espsolver.cli" in cli
    assert not cli & {"dataclasses", "inspect", "ast", "dis", "tokenize"}
    # argparse, and the gettext it loads, cost more to import and build on
    # every run than the command line's own parser.
    assert not cli & {"argparse", "gettext"}
    # Both --json documents are written as text, so the JSON codec loads
    # with neither the package nor the command line.
    assert "json" not in cli
    package = added_modules("import espsolver")
    assert "espsolver" in package
    assert not package & {"argparse", "json"}
