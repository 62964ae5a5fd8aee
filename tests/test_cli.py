"""End-to-end checks of the command-line interface."""

import json
from fractions import Fraction

import pytest

import euleradic.cli as cli
from euleradic import closed_form_sym, count_good_dp


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


def test_encode_decode_round_trip(capsys):
    rc, out, _ = run(capsys, "encode", "--path", "(1,1):H1,V2,H3")
    assert rc == 0 and out == "n=2;s1,s4,h2\n"
    rc, out, _ = run(capsys, "decode", "--base", "1,1", "--code", "n=2;s1,s4,h2")
    assert rc == 0 and out == "(1,1):H1,V2,H3\n"


def test_decode_error_exit(capsys):
    rc, _, err = run(capsys, "decode", "--base", "0,0", "--code", "n=0;h1")
    assert rc == 2 and "error:" in err


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
    monkeypatch.setattr(cli, "check_monotonicity",
                        lambda base, imax, jmax: [(0, 0, "planted defect")])
    rc, out, _ = run(capsys, "verify", "--suite", "monotonicity",
                     "--pmax", "0", "--qmax", "1", "--imax", "2", "--jmax", "2")
    assert rc == 1
    assert "FAIL" in out and "planted defect" in out


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
