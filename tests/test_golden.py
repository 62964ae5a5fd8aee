"""Byte-exact CLI output: the README examples, and digests of two long
outputs whose text must not change when the code under them does."""

import hashlib

import pytest

import euleradic.cli as cli


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

# SHA-256 of stdout, taken before the adic map became an odometer.
DIGESTS = [
    (("orbit", "--vertex", "3,4"),
     "9a16ffaf3002e0442a0772c6b7401fc8deae6be9e669dddd65da7a045dd97382"),
    (("verify", "--suite", "orbit"),
     "82c4dbabee59ff8ec101184030feaf365593e3e02e04ce7de4c599fabac2a3ec"),
]


@pytest.mark.parametrize("argv,expected", README_EXAMPLES,
                         ids=[argv[0] for argv, _ in README_EXAMPLES])
def test_readme_example(capsys, argv, expected):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (0, expected, "")


@pytest.mark.parametrize("argv,digest", DIGESTS,
                         ids=[argv[0] for argv, _ in DIGESTS])
def test_output_digest(capsys, argv, digest):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
