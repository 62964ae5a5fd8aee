"""Byte-exact CLI output: the README examples, and digests of long
outputs whose text must not change when the code under them does (an
orbit, every verify suite at its defaults and the benchmark's verify,
converge, good and table jobs).  The same holds for the text of the
encode and transport results on the benchmark's walk cells, and of the
help text of every command."""

import hashlib
import sys

import pytest

import euleradic.cli as cli
from euleradic import (LabelScheme, encode, enumerate_paths, format_code,
                       format_path, transport)


README_EXAMPLES = [
    (("table", "--p", "0", "--q", "0", "--imax", "2", "--jmax", "2"),
     "i\\j,0,1,2\n0,1,1,1\n1,1,4,11\n2,1,11,66\n"),
    (("good", "--p", "0", "--q", "0", "--i", "1", "--j", "1"),
     "G=2 A=4 G/A=1/2\n"),
    (("transport", "--from", "1,0", "--to", "0,1",
      "--path", "(1,0):V1,H1,V2,H2"),
     "(0,1):H2,H1,V1,H2\nn=1;s2,s1,s3,h2\n"),
    (("orbit", "--vertex", "1,1"),
     "(0,0):V1,H1\n(0,0):V1,H2\n(0,0):H1,V1\n(0,0):H1,V2\n"),
    (("encode", "--path", "(1,1):H1,V2,H3"),
     "n=2;s1,s4,h2\n"),
    (("decode", "--base", "1,1", "--code", "n=2;s1,s4,h2"),
     "(1,1):H1,V2,H3\n"),
]

# SHA-256 of stdout.  The first two were taken before the adic map became
# an odometer; the verify rows after them (every suite at its defaults,
# then the benchmark's verify jobs) before the suites moved into
# euleradic.checks.
DIGESTS = [
    ("orbit", ("orbit", "--vertex", "3,4"),
     "9a16ffaf3002e0442a0772c6b7401fc8deae6be9e669dddd65da7a045dd97382"),
    ("verify", ("verify", "--suite", "orbit"),
     "82c4dbabee59ff8ec101184030feaf365593e3e02e04ce7de4c599fabac2a3ec"),
    ("verify-recurrence", ("verify", "--suite", "recurrence"),
     "11dcaab49a5d28c6ff40b8cf1e3e20bd4115e37ac67874b5eb40ff5b3bd8066e"),
    ("verify-closedform", ("verify", "--suite", "closedform"),
     "c315bd09ef5408eb29a1012030cae352da29944a6eee9417537f9e6bbb77f803"),
    ("verify-monotonicity", ("verify", "--suite", "monotonicity"),
     "3f0a06ca1d207d65eabf21b9ce38c862f67a7fd58a3e387c8026480a43fa45ba"),
    ("verify-identity", ("verify", "--suite", "identity"),
     "ac281defefe4549caedf792b52b3e902963ab13e98beb795321c05a0201cbe36"),
    ("verify-goodcount", ("verify", "--suite", "goodcount"),
     "cf1106aca16335b6f6b55b028dbc633ecddaf080a4b11ff18f8d11e71a31bc0e"),
    ("verify-bijection", ("verify", "--suite", "bijection"),
     "aa1d8c1137c22673a4f0d8bd1a25e0c039564d9f9e847c1314aec83eafca8832"),
    ("verify-identity-10", ("verify", "--suite", "identity", "--pmax", "3",
                            "--imax", "10"),
     "3aa6497992c96c34d78f4d19de2456d4677313443b006ae0066146cdbc0861ec"),
    ("verify-identity-18", ("verify", "--suite", "identity", "--pmax", "3",
                            "--imax", "18"),
     "4677307cb4fbbd024aad1a0f950d616743948949f69ec6ace6f29e12c22abafc"),
    ("verify-recurrence-16", ("verify", "--suite", "recurrence", "--pmax", "2",
                              "--qmax", "2", "--imax", "16", "--jmax", "16"),
     "068d1a67a173df3058915813d639eaec5df40c59de428ce526a7ea124f7c8587"),
    ("verify-recurrence-24", ("verify", "--suite", "recurrence", "--pmax", "2",
                              "--qmax", "2", "--imax", "24", "--jmax", "24"),
     "b2bae3b75c50115b25b11c4c150558e4b0cc87b8427854c3bc35ccc3353d365e"),
    ("verify-monotonicity-16", ("verify", "--suite", "monotonicity", "--pmax", "2",
                                "--qmax", "3", "--imax", "16", "--jmax", "16"),
     "6cba2705b7dc276574b5c92c1a6a3c880a94a9727cfd8083c1f01165b116bbd4"),
    ("verify-monotonicity-24", ("verify", "--suite", "monotonicity", "--pmax", "2",
                                "--qmax", "3", "--imax", "24", "--jmax", "24"),
     "7fad3b24791a12df1afda1a4e57a261b534d150953ea7e7250690d5a7c6439e9"),
    # The benchmark's converge, good and JSON table jobs, taken before the
    # closed form stepped its binomials and the monotonicity scan
    # cross-multiplied.  (Its monotonicity-24, identity-18 and
    # recurrence-16 jobs are pinned above.)
    ("converge-218", ("converge", "--p", "2", "--q", "1", "--diag", "218", "--step", "20"),
     "c57094d734539be2c177a18cbe07703fd24dd078b792b18307769c54829fb78b"),
    ("converge-61", ("converge", "--p", "1", "--q", "1", "--diag", "61", "--step", "5"),
     "def71dd25d87e849d98d4bf99702fd1954bdf03ced53e894a9eae0372e80a80d"),
    ("good-101", ("good", "--p", "0", "--q", "0", "--i", "101", "--j", "101"),
     "aff33769cf45cea4f5092f2c273de965237e0fb14adcf00e30ff54814aa4f15a"),
    ("good-3-3", ("good", "--p", "3", "--q", "3", "--i", "12", "--j", "12"),
     "aa9515f107860e970f502aeaa518b5cf9d401b03bbc8a681228e0e2e29b85506"),
    ("table-json-80", ("table", "--p", "1", "--q", "2", "--imax", "80", "--jmax", "80",
                       "--format", "json"),
     "98accd11ded17d8b7252549d71bcb52484eea08a1450bde2a14aa07563f95662"),
    # Symmetric (p = q) tables, square and not, taken while every cell of a
    # table was converted to text on its own.
    ("table-1-1-150", ("table", "--p", "1", "--q", "1", "--imax", "150", "--jmax", "150"),
     "d80e24720ccec8b30ecda5eb55cf742defc80403c905a0dfcfc4a20bd7fc29a3"),
    ("table-0-0-60", ("table", "--p", "0", "--q", "0", "--imax", "60", "--jmax", "60"),
     "bddd1a77fe0dd69531337c7ea1427b1c9abbe4ab322ecd1de3df2129dcfc8aaa"),
    ("table-json-0-0-40", ("table", "--p", "0", "--q", "0", "--imax", "40", "--jmax", "40",
                           "--format", "json"),
     "4f5af20cdb44b3625e138ea87b05e0a912e3539de3250225fb63735a30520cff"),
    ("table-2-2-30x7", ("table", "--p", "2", "--q", "2", "--imax", "30", "--jmax", "7"),
     "9647103d37c00a11d69261e1d62a8b4dbc670dc42d566dbb7fc8d8e130706b0e"),
    ("table-2-2-7x30", ("table", "--p", "2", "--q", "2", "--imax", "7", "--jmax", "30"),
     "d92965f9b8d43080fa4d55381aa9a04397399e50cfc9c90304d100f0aff1bb70"),
    # An orbit at level 8, 156,190 lines, taken while each reset below a
    # raised digit built the minimal path's rows afresh: it reaches
    # parents deeper than the every-orbit digest below.
    ("orbit-4-4", ("orbit", "--vertex", "4,4"),
     "e33270f6453579aa3644da1c2564d3dee14afc89d962b2f64698de24c23f7137"),
    # The benchmark's p != q CSV tables, square and long, and a JSON table
    # of many short rows, taken while a table was filled whole before any
    # of it was written.
    ("table-2-1-110", ("table", "--p", "2", "--q", "1", "--imax", "110", "--jmax", "110"),
     "fe276ec8be52b6c59f675bd19f84d223b1935a7583a7e56c6f273ecaad034616"),
    ("table-3-0-12x300", ("table", "--p", "3", "--q", "0", "--imax", "12", "--jmax", "300"),
     "11f03f36337e44d6b166fb7d4520224e652c35ebb26c8a372a89ed1858d882b9"),
    ("table-json-2-1-7x30", ("table", "--p", "2", "--q", "1", "--imax", "7", "--jmax", "30",
                             "--format", "json"),
     "1788fb1343c8935015859a37c1d31ad428ce0c1bf42e59356bd7cfc4ad3cb490"),
]


# SHA-256 of the stdout of `orbit --vertex X,Y` at every vertex through
# level 7, level by level and x ascending: 36 vertices, 46,233 lines.
# Taken while orbit still printed one line per call.
ALL_ORBITS_DIGEST = "d254621e2da49bea7ce2e8a368a6388cd07908deb4eeed835fc659e4857e1852"


@pytest.mark.parametrize("argv,expected", README_EXAMPLES,
                         ids=[argv[0] for argv, _ in README_EXAMPLES])
def test_readme_example(capsys, argv, expected):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (0, expected, "")


@pytest.mark.parametrize("argv,digest", [row[1:] for row in DIGESTS],
                         ids=[row[0] for row in DIGESTS])
def test_output_digest(capsys, argv, digest):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_every_orbit_through_level_seven_digest(capsys):
    digest = hashlib.sha256()
    lines = 0
    for n in range(8):
        for x in range(n + 1):
            rc = cli.main(["orbit", "--vertex", f"{x},{n - x}"])
            captured = capsys.readouterr()
            assert rc == 0 and captured.err == ""
            digest.update(captured.out.encode())
            lines += captured.out.count("\n")
    assert lines == 46233
    assert digest.hexdigest() == ALL_ORBITS_DIGEST


# The benchmark's walk cells (base, end); each is run as given and mirrored.
WALK_CELLS = [
    ((0, 0), (1, 3)), ((0, 1), (2, 2)), ((0, 1), (1, 4)), ((1, 1), (2, 3)),
    ((0, 0), (1, 4)), ((0, 0), (2, 2)), ((0, 1), (6, 1)), ((0, 1), (1, 5)),
    ((0, 0), (1, 5)), ((0, 1), (2, 3)), ((0, 2), (2, 4)), ((1, 1), (3, 3)),
    ((0, 1), (1, 7)), ((0, 1), (4, 2)), ((1, 1), (2, 5)), ((0, 1), (2, 4)),
    ((0, 2), (2, 5)), ((0, 1), (3, 3)), ((0, 0), (1, 8)), ((0, 0), (3, 3)),
    ((0, 2), (3, 4)), ((0, 0), (2, 5)),
]

# SHA-256 of the lines below, taken before the label map moved into
# LabelScheme: 64,218 lines.
LABEL_DIGEST = "144f4e472e385740c1146fcdd18e352fc3d9ee16a093260e33f0c54cf060b976"


def _label_lines():
    # Every path of every cell: its code at its own base, then its
    # transport to each other base of the level.
    for (p, q), (x, y) in WALK_CELLS + [((q, p), (y, x)) for (p, q), (x, y) in WALK_CELLS]:
        level = p + q
        src = LabelScheme((p, q))
        others = [LabelScheme((b, level - b)) for b in range(level + 1) if b != p]
        for path in enumerate_paths((p, q), (x - p, y - q)):
            yield format_code(encode(src, path))
            for dst in others:
                yield format_path(transport(src, dst, path))


def test_encode_and_transport_digest():
    digest = hashlib.sha256()
    for line in _label_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == LABEL_DIGEST


# SHA-256 of `euleradic --help` and of each `<command> --help`, printed
# 80 columns wide, taken while build_parser was one add_parser block per
# command.  argparse lays help out differently across Python minor
# versions, so these hold only on the version they were taken on, 3.11.
HELP_DIGESTS = [
    ((), "e29120d3a58ec8452fdd54ebd3dc330fc3252821e97fe3a677552fbb9a6cce5a"),
    (("table",), "1078a3aa89473f28630e97464f0a878e4e018f8a8d3b1adb4285573efbb93f41"),
    (("verify",), "d248b73544fff2e5c3018d8946df542069ea0cfcc1f971e30cef83367834fc8f"),
    (("converge",), "07a0751cc1ce49edfbdd5573135d4bdb0db799061bb0a5390bd012acacf5c2e0"),
    (("good",), "500bd226201bef8bc1dc97e7566c64b3fe03c31454a865d905353913ff7ca0c5"),
    (("transport",), "4e06723f5b6fcc0d2adb98bdf4fd4a5a2fc91192bca547a44a1e9b4950c18267"),
    (("orbit",), "9c7b84f7f81191f60bdcc18ae65da8c1f7690953df186eef8b1f78bfacf0ccc3"),
    (("encode",), "d3747039dab9c7fa37881f1c371a1f7c06c57943608766ca46799b092ca32fb2"),
    (("decode",), "1aa79c4d902d89ea4bd5636881db515357dd44375a98db5e0b5cbdc8f0b189fe"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help digests were taken on Python 3.11")
@pytest.mark.parametrize("command,digest", HELP_DIGESTS,
                         ids=[command[0] if command else "euleradic"
                              for command, _ in HELP_DIGESTS])
def test_help_digest(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as stop:
        cli.main([*command, "--help"])
    captured = capsys.readouterr()
    assert stop.value.code == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
