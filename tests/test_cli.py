"""End-to-end checks of the command-line interface."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import euleradic.cli as cli
import euleradic.eulerian as eulerian
import euleradic.goodpaths as goodpaths
from euleradic import checks, closed_form_sym, count_good_dp, recurrence_table


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _chunked_int(text):
    # int() refuses more than 4,300 digits at once
    n = 0
    for k in range(0, len(text), 1000):
        chunk = text[k:k + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def test_table_csv(capsys):
    rc, out, err = run(capsys, "table", "--p", "0", "--q", "0",
                       "--imax", "2", "--jmax", "2")
    assert rc == 0 and err == ""
    assert out == "i\\j,0,1,2\n0,1,1,1\n1,1,4,11\n2,1,11,66\n"


def test_table_json(capsys):
    rc, out, _ = run(capsys, "table", "--p", "1", "--q", "1",
                     "--imax", "1", "--jmax", "2", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["params"] == {"p": 1, "q": 1, "imax": 1, "jmax": 2}
    assert obj["rows"] == [[1, 2, 4], [2, 12, 52]]


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 12), st.integers(0, 12),
       st.sampled_from(["csv", "json"]))
def test_a_table_converts_each_mirrored_count_once(p, q, imax, jmax, fmt):
    # A p = q table is symmetric, so only the cells on or above the
    # diagonal, and the rows past jmax, whose mirrors lie outside the
    # window, are converted; every other table converts every cell.  The
    # text is still one str per cell of the full recurrence table.
    cells = recurrence_table((p, q), imax, jmax).cells
    if fmt == "json":
        expected = json.dumps({"params": {"p": p, "q": q, "imax": imax, "jmax": jmax},
                               "rows": cells}) + "\n"
    else:
        expected = "".join(f"{i}," + ",".join(map(str, row)) + "\n"
                           for i, row in enumerate(cells))
        expected = "i\\j," + ",".join(map(str, range(jmax + 1))) + "\n" + expected
    converted = []
    decimals = cli._decimals

    def counted(counts):
        converted.extend(counts)
        return decimals(counts)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "_decimals", counted)
        rc = cli.main(["table", "--p", str(p), "--q", str(q), "--imax", str(imax),
                       "--jmax", str(jmax), "--format", fmt])
    assert rc == 0 and out.getvalue() == expected
    assert converted == [cells[i][j] for i in range(imax + 1)
                         for j in range(i if p == q and i <= jmax else 0, jmax + 1)]


def test_a_row_is_converted_in_one_str_pass_unless_a_count_is_past_the_limit(monkeypatch):
    # _decimal, one Python call per count, is left to rows holding a count
    # of more than _STR_BITS bits; every other row takes one map(str, ...).
    decimal, widest = cli._decimal, 2 ** cli._STR_BITS - 1
    converted = []
    monkeypatch.setattr(cli, "_decimal", lambda n: converted.append(n) or decimal(n))
    assert cli._decimals([0, 7, widest]) == ["0", "7", str(widest)]
    assert converted == []
    assert cli._decimals([7, widest + 1]) == ["7", str(widest + 1)]
    assert converted[:2] == [7, widest + 1]     # then the halves it splits into


def test_table_is_deterministic(capsys):
    first = run(capsys, "table", "--p", "2", "--q", "1",
                "--imax", "5", "--jmax", "5")
    second = run(capsys, "table", "--p", "2", "--q", "1",
                 "--imax", "5", "--jmax", "5")
    assert first == second


def test_table_past_the_int_to_str_digit_limit(capsys):
    # the last cell, 20001**1000, has 4,302 digits
    argv = ("table", "--p", "20000", "--q", "0", "--imax", "0", "--jmax", "1000")
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    header, row = out.splitlines()
    assert header == "i\\j," + ",".join(map(str, range(1001)))
    cells = row.split(",")
    assert cells[:3] == ["0", "1", "20001"]
    assert len(cells[-1]) == 4302 and _chunked_int(cells[-1]) == 20001 ** 1000
    rc, out, err = run(capsys, *argv, "--format", "json")
    assert rc == 0 and err == ""
    assert out.startswith('{"params": {"p": 20000, "q": 0, "imax": 0, '
                          '"jmax": 1000}, "rows": [[1, 20001, 400040001, ')
    assert out.endswith("]]}\n")
    assert _chunked_int(out[:-4].rsplit(", ", 1)[1]) == 20001 ** 1000


class _Sink:
    """A stdout that discards what it is given."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_table_is_written_without_holding_it(fmt):
    # Each row is filled, converted and written before the next, so the
    # traced peak is a row or two, far below the 201 x 201 table's counts
    # (8 MiB) or its JSON text (36 MiB).  The parser is built first so its
    # one-time cost is not traced.
    cli._parser()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Sink()):
            rc = cli.main(["table", "--p", "2", "--q", "1", "--imax", "200",
                           "--jmax", "200", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0 and peak < 2 * 2 ** 20


def test_converge_output(capsys):
    rc, out, _ = run(capsys, "converge", "--p", "1", "--q", "0",
                     "--diag", "40", "--step", "10")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,ratio,target,gap,ratio_decimal,gap_decimal"
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["10", "20", "30", "40"]
    assert all(r[2] == "1/2" for r in rows)
    num, den = map(int, rows[-1][3].split("/"))
    assert 1000 * num < den
    gaps = [float(r[5]) for r in rows]
    assert gaps == sorted(gaps, reverse=True)


def test_good_exact_line(capsys):
    rc, out, _ = run(capsys, "good", "--p", "0", "--q", "0",
                     "--i", "1", "--j", "1")
    assert rc == 0 and out == "G=2 A=4 G/A=1/2\n"
    rc, out, _ = run(capsys, "good", "--p", "0", "--q", "0",
                     "--i", "1", "--j", "1", "--method", "enum")
    assert rc == 0 and out == "G=2 A=4 G/A=1/2\n"


def test_good_line_past_the_int_to_str_digit_limit(capsys):
    rc, out, err = run(capsys, "good", "--p", "0", "--q", "0",
                       "--i", "900", "--j", "900")
    assert rc == 0 and err == ""
    g, a, ratio = (field.split("=", 1)[1] for field in out.split())
    assert len(a) > 5000
    assert _chunked_int(a) == closed_form_sym((0, 0), (900, 900))
    assert _chunked_int(g) == count_good_dp((0, 0), (900, 900))
    f = Fraction(_chunked_int(g), _chunked_int(a))
    assert ratio == f"{f.numerator}/{f.denominator}"


def test_good_below_the_threshold_answers_without_the_sieve(capsys, monkeypatch):
    # The sieve over (2002)^2 terms used to run for seconds to return 0.
    def no_sieve(*args):
        raise AssertionError("sieve run below the threshold")
    monkeypatch.setattr(goodpaths, "_sieve", no_sieve)
    rc, out, err = run(capsys, "good", "--p", "2000", "--q", "2000",
                       "--i", "0", "--j", "0")
    assert (rc, out, err) == (0, "G=0 A=1 G/A=0/1\n", "")


def test_good_enum_walks_long_paths(capsys):
    rc, out, err = run(capsys, "good", "--p", "0", "--q", "0",
                       "--i", "3000", "--j", "0", "--method", "enum")
    assert rc == 0 and err == ""
    assert out == "G=0 A=1 G/A=0/1\n"


def test_transport_round_trip(capsys):
    rc, out, _ = run(capsys, "transport", "--from", "1,0", "--to", "0,1",
                     "--path", "(1,0):V1,H1,V2,H2")
    assert rc == 0
    moved, code = out.strip().splitlines()
    assert moved == "(0,1):H2,H1,V1,H2"
    assert code == "n=1;s2,s1,s3,h2"
    rc, back_out, _ = run(capsys, "transport", "--from", "0,1", "--to", "1,0",
                          "--path", moved)
    assert rc == 0
    assert back_out.strip().splitlines()[0] == "(1,0):V1,H1,V2,H2"


def test_transport_start_mismatch(capsys):
    rc, _, err = run(capsys, "transport", "--from", "1,0", "--to", "0,1",
                     "--path", "(0,1):H1")
    assert rc == 2 and "error:" in err


def test_orbit_stream(capsys):
    rc, out, _ = run(capsys, "orbit", "--vertex", "1,1")
    assert rc == 0
    assert out.splitlines() == ["(0,0):V1,H1", "(0,0):V1,H2",
                                "(0,0):H1,V1", "(0,0):H1,V2"]


def test_orbit_budget_exit(capsys):
    rc, _, err = run(capsys, "orbit", "--vertex", "6,6", "--max-enum", "10")
    assert rc == 2 and "budget" in err


@pytest.mark.parametrize("argv", [
    ("orbit", "--vertex", "900,900"),
    ("good", "--p", "0", "--q", "0", "--i", "900", "--j", "900", "--method", "enum"),
], ids=["orbit", "good"])
def test_a_budget_refusal_gives_the_count_by_its_bit_length(capsys, argv):
    # The count has 5,082 digits, more than str() writes for an int.
    rc, out, err = run(capsys, *argv, "--max-enum", "10")
    assert rc == 2 and out == ""
    assert err == ("error: the 16881-bit count of paths from (0, 0) at offset "
                   "(900, 900) exceeds the enumeration budget 10\n")


def test_encode_decode_round_trip(capsys):
    rc, out, _ = run(capsys, "encode", "--path", "(1,1):H1,V2,H3")
    assert rc == 0 and out == "n=2;s1,s4,h2\n"
    rc, out, _ = run(capsys, "decode", "--base", "1,1", "--code", "n=2;s1,s4,h2")
    assert rc == 0 and out == "(1,1):H1,V2,H3\n"


def test_decode_error_exit(capsys):
    rc, _, err = run(capsys, "decode", "--base", "0,0", "--code", "n=0;h1")
    assert rc == 2 and "error:" in err


def test_a_negative_kernel_result_exits_two_with_one_line(capsys, monkeypatch):
    # _dot raises ArithmeticError when the alternating sum goes negative;
    # main reports it like any other refusal.
    monkeypatch.setattr(eulerian, "_level",
                        lambda p, q, e, k: ([-1] * (k + 1), [1] * (k + 1)))
    for argv in (("good", "--p", "1", "--q", "1", "--i", "2", "--j", "3"),
                 ("verify", "--suite", "recurrence", "--pmax", "0", "--qmax", "0")):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err.startswith("error: alternating sum went negative at base (")
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("suite,flags", [
    ("recurrence", ["--pmax", "1", "--qmax", "1", "--imax", "5", "--jmax", "5"]),
    ("closedform", ["--pmax", "2", "--qmax", "2", "--imax", "4", "--jmax", "4"]),
    ("monotonicity", ["--pmax", "1", "--qmax", "2", "--imax", "6", "--jmax", "6"]),
    ("identity", ["--pmax", "2", "--imax", "5"]),
    ("goodcount", ["--pmax", "1", "--qmax", "1", "--summax", "5"]),
    ("bijection", ["--levels", "1", "--epmax", "3"]),
    ("orbit", ["--levels", "3"]),
])
def test_verify_suites_pass(capsys, suite, flags):
    rc, out, err = run(capsys, "verify", "--suite", suite, *flags)
    assert rc == 0, out + err
    lines = out.strip().splitlines()
    assert all(line.startswith(("PASS", "INFO", "passed")) for line in lines)
    assert lines[-1].startswith("passed ")
    if suite == "bijection":
        assert any(line.startswith("INFO boundary") for line in lines)


def test_verify_reports_failure(capsys, monkeypatch):
    monkeypatch.setattr(checks, "check_monotonicity",
                        lambda base, imax, jmax: [(0, 0, "planted defect")])
    rc, out, _ = run(capsys, "verify", "--suite", "monotonicity",
                     "--pmax", "0", "--qmax", "1", "--imax", "2", "--jmax", "2")
    assert rc == 1
    assert "FAIL" in out and "planted defect" in out


@pytest.mark.parametrize("argv,failed", [
    (("--suite", "goodcount", "--max-enum", "0"),
     ["DP count equals exhaustive count (p,q <= 2,2; i+j <= 6)"]),
    (("--suite", "bijection", "--max-enum", "0"),
     [f"transport is a bijection between good-path sets at level {n}, "
      "endpoints <= (4,4)" for n in range(3)]),
])
def test_verify_fails_a_case_that_checked_nothing(capsys, argv, failed):
    rc, out, err = run(capsys, "verify", *argv)
    assert rc == 1 and err == ""
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        f"FAIL {name}: checked 0 cells" for name in failed]
    assert lines[-1] == f"passed {3 - len(failed)} of 3 cases"


def test_verify_window_without_cases_exits_two(capsys):
    # Monotonicity has one case per base with q >= 1.
    rc, out, err = run(capsys, "verify", "--suite", "monotonicity", "--qmax", "0")
    assert rc == 2 and out == ""
    assert err == "error: the window holds no case of the monotonicity suite\n"


def test_verify_refuses_a_flag_its_suite_does_not_read(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "identity", "--qmax", "9",
                       "--levels", "3", "--summax", "2")
    assert rc == 2 and out == ""
    assert err == ("error: the identity suite does not read --qmax; "
                   "its window flags are --pmax, --imax\n")


@pytest.mark.parametrize("suite,flag", [
    (suite, flag) for suite, (window, *_) in cli._SUITES.items() for flag in window])
def test_verify_negative_window_exits_two(capsys, suite, flag):
    rc, out, err = run(capsys, "verify", "--suite", suite, f"--{flag}", "-2")
    assert rc == 2 and out == ""
    assert err == f"error: --{flag} must be nonnegative, got -2\n"


def _required(*names):
    return [((f"--{name}",), name, None, True, None) for name in names]


_HELP = (("-h", "--help"), "help", argparse.SUPPRESS, False, None)
_BUDGET = {key: ((f"--{key.replace('_', '-')}",), key, 10**7, False, None)
           for key in ("max_cells", "max_enum")}

# Every action of every subcommand, in order, as (option strings, dest,
# default, required, choices).
PARSER_SHAPE = [
    ("table", [_HELP, *_required("p", "q", "imax", "jmax"),
               (("--format",), "format", "csv", False, ["csv", "json"]),
               _BUDGET["max_cells"]]),
    ("verify", [_HELP, (("--suite",), "suite", None, True,
                        ["bijection", "closedform", "goodcount", "identity",
                         "monotonicity", "orbit", "recurrence"]),
                *[((f"--{key}",), key, None, False, None) for key in
                  ("pmax", "qmax", "imax", "jmax", "summax", "levels", "epmax")],
                _BUDGET["max_cells"], _BUDGET["max_enum"]]),
    ("converge", [_HELP, *_required("p", "q", "diag"),
                  (("--step",), "step", 1, False, None)]),
    ("good", [_HELP, *_required("p", "q", "i", "j"),
              (("--method",), "method", "dp", False, ["dp", "enum"]),
              _BUDGET["max_enum"]]),
    ("transport", [_HELP, (("--from",), "src", None, True, None),
                   (("--to",), "dst", None, True, None), *_required("path")]),
    ("orbit", [_HELP, *_required("vertex"), _BUDGET["max_enum"]]),
    ("encode", [_HELP, *_required("path")]),
    ("decode", [_HELP, *_required("base", "code")]),
]


def test_the_parser_keeps_its_shape():
    parser = cli.build_parser()
    sub, = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [(name, [(tuple(a.option_strings), a.dest, a.default, a.required,
                     None if a.choices is None else list(a.choices))
                    for a in command._actions])
            for name, command in sub.choices.items()] == PARSER_SHAPE
    verify_flags = {flag for a in sub.choices["verify"]._actions
                    for flag in a.option_strings}
    assert {f"--{key}" for window, *_ in cli._SUITES.values()
            for key in window} <= verify_flags


def test_the_command_table_is_the_one_statement_of_the_command_line():
    sub, = [a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == [name for name, *_ in cli._COMMANDS]
    for name, _, handler, _ in cli._COMMANDS:
        assert sub.choices[name].get_default("func") is handler
    # Every command function is the handler of exactly one row.
    handlers = [handler for _, _, handler, _ in cli._COMMANDS]
    assert len(set(handlers)) == len(handlers)
    assert set(handlers) == {value for attr, value in vars(cli).items()
                             if attr.startswith("_cmd_")}


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--p", "0", "--q", "0", "--imax", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "unknown"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["transport", "--from", "1,x", "--to", "0,1", "--path", "(1,0):"])
    assert exc.value.code == 2


def test_a_negative_coordinate_is_refused_by_the_parser(capsys):
    # Only the --flag=value form hands _pair a text that starts with a minus.
    with pytest.raises(SystemExit) as exc:
        cli.main(["orbit", "--vertex=-1,2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "coordinates must be nonnegative" in captured.err


def test_converge_without_samples_exits_two_with_one_line(capsys):
    argv = ("converge", "--p", "0", "--q", "0", "--diag", "2", "--step", "5")
    assert run(capsys, *argv) == (2, "", "error: no samples: --diag smaller than --step\n")


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    builds = []

    def counted():
        builds.append(1)
        return build()

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for argv in (["orbit", "--vertex", "1,1"], ["good", "--p", "0", "--q", "0",
                                                    "--i", "1", "--j", "1"],
                     ["table", "--p", "0", "--q", "0", "--imax", "1", "--jmax", "1"],
                     ["encode", "--path", "(1,1):H1,V2,H3"]):
            assert run(capsys, *argv)[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    # build_parser itself still hands out a fresh parser.
    assert build() is not build()


def test_a_usage_error_leaves_the_parser_as_a_fresh_process_has_it(capsys):
    argv = ["verify", "--suite", "identity", "--pmax", "1"]
    src = str(Path(cli.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-m", "euleradic", *argv],
                           env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, timeout=60)
    # This one fails after --imax and --pmax have been read.
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "identity", "--imax", "3", "--pmax", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert (fresh.returncode, fresh.stderr) == (0, "") and "i <= 8" in fresh.stdout
    assert run(capsys, *argv) == (0, fresh.stdout, "")


def test_resource_errors_exit_two(capsys):
    rc, _, err = run(capsys, "table", "--p", "0", "--q", "0",
                     "--imax", "99", "--jmax", "99", "--max-cells", "10")
    assert rc == 2 and "error:" in err
    rc, _, err = run(capsys, "encode", "--path", "not a path")
    assert rc == 2 and "error:" in err
    rc, _, err = run(capsys, "converge", "--p", "1", "--q", "1",
                     "--diag", "5", "--step", "0")
    assert rc == 2 and "error:" in err
    rc, out, err = run(capsys, "good", "--p", "0", "--q", "0",
                       "--i", "2000", "--j", "2000")
    assert rc == 2 and out == "" and "budget" in err


class _WriteSpy:
    """A stdout that records every write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def test_orbit_writes_whole_lines_in_bounded_chunks(monkeypatch):
    spy = _WriteSpy()
    monkeypatch.setattr(sys, "stdout", spy)
    assert cli.main(["orbit", "--vertex", "3,4"]) == 0
    out = "".join(spy.writes)
    assert out.count("\n") == 15619 and len(spy.writes) > 1
    assert all(text.endswith("\n") for text in spy.writes)
    assert max(text.count("\n") for text in spy.writes) <= cli._ORBIT_CHUNK
    # The `orbit --vertex 3,4` digest of tests/test_golden.py.
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9a16ffaf3002e0442a0772c6b7401fc8deae6be9e669dddd65da7a045dd97382")


def test_python_dash_m_runs_the_command_line():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "euleradic", "orbit", "--vertex", "1,1"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "(0,0):V1,H1\n(0,0):V1,H2\n(0,0):H1,V1\n(0,0):H1,V2\n", "")
    proc = subprocess.run([sys.executable, "-m", "euleradic", "orbit", "--vertex", "6,6",
                           "--max-enum", "10"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2 and proc.stdout == "" and proc.stderr.startswith("error:")


def test_closed_pipe_exits_two_without_a_traceback():
    # 15,619 lines overrun any pipe buffer, so the writer meets the closed
    # pipe while the orbit is still being printed.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "euleradic.cli", "orbit",
                             "--vertex", "3,4"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"(0,0):V1,V1,V1,V1,H1,H1,H1\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["orbit", "--vertex", "5,3"],
    ["table", "--p", "0", "--q", "0", "--imax", "300", "--jmax", "300"],
], ids=["orbit", "table"])
def test_a_reader_that_leaves_after_one_line_gets_one_error_line(argv):
    # Both outputs overrun any pipe buffer (88,234 orbit lines; about 50 MB
    # of table), so the write that meets the closed pipe is inside
    # cli.main, run as `python -m euleradic`.
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen([sys.executable, "-m", "euleradic", *argv],
                            env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().endswith(b"\n")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert err == "error: output closed before it was all written (broken pipe)\n"
