"""Command-line front end: count tables, verification suites, convergence
data, good-path queries, transports, orbits, and code round-trips.

Exit codes: 0 success, 1 verification failure, 2 usage, resource or
arithmetic error or output closed early.
All output is byte-deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from itertools import islice
from typing import TYPE_CHECKING

# Only what build_parser reads is imported here.  Each command imports the
# modules it runs when it is called, so a launch loads only those, and a
# name looked up at call time is whatever the module holds then.
from .errors import BudgetError
from .eulerian import DEFAULT_CELL_BUDGET
from .paths import DEFAULT_ENUM_BUDGET

if TYPE_CHECKING:
    from fractions import Fraction


def _pair(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(",")
        pair = int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'x,y' with two integers, got {text!r}") from None
    if pair[0] < 0 or pair[1] < 0:
        raise argparse.ArgumentTypeError(f"coordinates must be nonnegative: {text!r}")
    return pair


def _decimal(n: int) -> str:
    """Exact decimal text of a nonnegative int of any size.  CPython's str
    refuses ints past 4,300 digits, so larger ones are split in halves at a
    power of ten; smaller ones (at most 4,215 digits) take str."""
    if n.bit_length() <= 14000:
        return str(n)
    k = n.bit_length() * 3 // 20       # about half the digit count
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def _frac(f: Fraction) -> str:
    return f"{_decimal(f.numerator)}/{_decimal(f.denominator)}"


def _dec(f: Fraction) -> str:
    return f"{float(f):.15g}"


# ---------------------------------------------------------------- commands


def _cmd_table(args) -> int:
    from .eulerian import recurrence_table

    table = recurrence_table((args.p, args.q), args.imax, args.jmax,
                             max_cells=args.max_cells)
    if args.format == "json":
        import json

        # Laid out as json.dumps would, with the cells written by _decimal.
        params = json.dumps({"p": args.p, "q": args.q,
                             "imax": args.imax, "jmax": args.jmax})
        rows = ", ".join("[" + ", ".join(map(_decimal, row)) + "]"
                         for row in table.cells)
        print(f'{{"params": {params}, "rows": [{rows}]}}')
    else:
        print("i\\j," + ",".join(str(j) for j in range(args.jmax + 1)))
        for i in range(args.imax + 1):
            print(f"{i}," + ",".join(map(_decimal, table.cells[i])))
    return 0


def _cmd_converge(args) -> int:
    from .ratios import convergence_report

    if args.step < 1:
        raise ValueError(f"--step must be positive, got {args.step}")
    samples = [(k, k) for k in range(args.step, args.diag + 1, args.step)]
    if not samples:
        raise ValueError("no samples: --diag smaller than --step")
    records = convergence_report((args.p, args.q), samples)
    print("k,ratio,target,gap,ratio_decimal,gap_decimal")
    for rec in records:
        print(f"{rec.off.i},{_frac(rec.ratio)},{_frac(rec.target)},"
              f"{_frac(rec.abs_gap)},{_dec(rec.ratio)},{_dec(rec.abs_gap)}")
    return 0


def _cmd_good(args) -> int:
    from fractions import Fraction

    from .eulerian import _count
    from .goodpaths import count_good_dp, count_good_enumeration

    base, off = (args.p, args.q), (args.i, args.j)
    if args.method == "enum":
        g = count_good_enumeration(base, off, max_enum=args.max_enum)
    else:
        g = count_good_dp(base, off)
    a = _count(*base, *off)
    print(f"G={_decimal(g)} A={_decimal(a)} G/A={_frac(Fraction(g, a))}")
    return 0


def _cmd_transport(args) -> int:
    from .encoding import encode, format_code, transport
    from .goodpaths import LabelScheme
    from .paths import format_path, parse_path

    moved = transport(LabelScheme(args.src), LabelScheme(args.dst), parse_path(args.path))
    print(format_path(moved))
    print(format_code(encode(LabelScheme(args.dst), moved)))
    return 0


#: Lines `orbit` hands to one stdout write; bounds the text held at once.
_ORBIT_CHUNK = 4096


def _cmd_orbit(args) -> int:
    from .adic import orbit
    from .paths import _format_paths

    lines = _format_paths(orbit(args.vertex, max_enum=args.max_enum))
    while chunk := list(islice(lines, _ORBIT_CHUNK)):
        chunk.append("")        # so the join ends the last line too
        sys.stdout.write("\n".join(chunk))
    return 0


def _cmd_encode(args) -> int:
    from .encoding import encode, format_code
    from .goodpaths import LabelScheme
    from .paths import parse_path

    path = parse_path(args.path)
    print(format_code(encode(LabelScheme(path.start), path)))
    return 0


def _cmd_decode(args) -> int:
    from .encoding import decode, parse_code
    from .goodpaths import LabelScheme
    from .paths import format_path

    code = parse_code(args.code)
    print(format_path(decode(LabelScheme(args.base), code)))
    return 0


# ---------------------------------------------------------------- verify


def _boundary_counts(checks, a):
    # Endpoints with i or j = n+1 lie below the bijection's threshold;
    # whether their good counts agree is reported, not asserted.
    for n in range(1, a.levels + 1):
        for ep in [(n + 1, n + 1), (n + 1, n + 2), (n + 2, n + 1)]:
            counts = [checks.count_good_dp(b, (ep[0] - b[0], ep[1] - b[1]))
                      for b in checks.level(n)]
            yield (f"boundary endpoint {ep} at level {n}: G values {counts} "
                   f"{'equal' if len(set(counts)) == 1 else 'UNEQUAL'} (not asserted)")


# Each suite: its default window, which names every window flag the suite
# reads, its cases for the euleradic.checks module and a window as
# (name, (bad, checked)), and its INFO lines.  The cases read the library
# through that module, which _cmd_verify imports only when it runs.
_SUITES = {
    "recurrence": (dict(pmax=2, qmax=2, imax=8, jmax=8), lambda checks, a: [
        (f"closed form equals recurrence at base ({p},{q}), window {a.imax}x{a.jmax}",
         checks.closed_form_vs_recurrence([(p, q)], checks.grid(a.imax, a.jmax),
                                          checks.closed_form_table, max_cells=a.max_cells))
        for p, q in checks.grid(a.pmax, a.qmax)]),
    "closedform": (dict(pmax=3, qmax=3, imax=6, jmax=6), lambda checks, a: [
        ("symmetric variant equals primary form on the window", checks.forms_agree(
            checks.grid(a.pmax, a.qmax), checks.grid(a.imax, a.jmax),
            checks.closed_form_sym, checks.closed_form)),
        ("origin form equals primary form at base (0,0)", checks.forms_agree(
            [checks.ORIGIN], checks.grid(a.imax, a.jmax), checks.origin_form,
            checks.closed_form)),
        ("origin counts match descent-counting oracle (n <= 8)",
         checks.origin_vs_descent_oracle(
             [(i, j) for i, j in checks.grid(a.imax, a.jmax) if 1 <= i + j <= 7]))]),
    "monotonicity": (dict(pmax=2, qmax=3, imax=10, jmax=10), lambda checks, a: [
        (f"ratio inequalities hold at base ({p},{q}), window {a.imax}x{a.jmax}",
         checks.ratio_monotonicity([(p, q)], a.imax, a.jmax))
        for p in range(a.pmax + 1) for q in range(1, a.qmax + 1)]),
    "identity": (dict(pmax=3, imax=8), lambda checks, a: [
        (f"coefficient identity at p={p}, i <= {a.imax}, q in [-15,15]",
         checks.coefficient_identity([p], range(-15, 16), a.imax))
        for p in range(a.pmax + 1)]),
    "goodcount": (dict(pmax=2, qmax=2, summax=6), lambda checks, a: [
        (f"DP count equals exhaustive count (p,q <= {a.pmax},{a.qmax}; i+j <= {a.summax})",
         checks.sieve_vs_exhaustive(checks.grid(a.pmax, a.qmax), [
             (i, s - i) for s in range(a.summax + 1) for i in range(s + 1)],
             max_enum=a.max_enum)),
        ("good paths exist exactly when i >= q+1 and j >= p+1",
         checks.nonemptiness_threshold(checks.grid(a.pmax, a.qmax), checks.grid(5, 5))),
        ("non-good paths within the two-family bound (p,q >= 1)",
         checks.bad_paths_bounded([(p, q) for p, q in checks.grid(a.pmax, a.qmax)
                                   if p and q], 8, 8))]),
    "bijection": (dict(levels=2, epmax=4), lambda checks, a: [
        (f"transport is a bijection between good-path sets at level {n}, "
         f"endpoints <= ({a.epmax},{a.epmax})", checks.transport_bijection(
             checks.level(n), [(i, j) for i in range(n + 2, a.epmax + 1)
                               for j in range(n + 2, a.epmax + 1)], max_paths=a.max_enum))
        for n in range(a.levels + 1)], _boundary_counts),
    "orbit": (dict(levels=5), lambda checks, a: [
        (f"orbits at level {n} are complete, ordered, and stop at the maximal path",
         checks.orbits(checks.level(n), max_enum=a.max_enum))
        for n in range(a.levels + 1)] + [
        (f"cylinder measures sum to 1 on each level <= {a.levels + 1}",
         checks.level_measures(range(a.levels + 2)))]),
}


_WINDOW_FLAGS = ("pmax", "qmax", "imax", "jmax", "summax", "levels", "epmax")


def _cmd_verify(args) -> int:
    from . import checks

    defaults, suite, *infos = _SUITES[args.suite]
    for key in _WINDOW_FLAGS:
        value = getattr(args, key)
        if value is None:
            continue
        if key not in defaults:
            raise ValueError(f"the {args.suite} suite does not read --{key}; its "
                             f"window flags are {', '.join('--' + k for k in defaults)}")
        if value < 0:
            raise ValueError(f"--{key} must be nonnegative, got {value}")
    window = argparse.Namespace(**{**defaults, **{
        key: value for key, value in vars(args).items() if value is not None}})
    cases = [(name, result[0], checks.problems(result))
             for name, result in suite(checks, window)]
    if not cases:
        raise ValueError(f"the window holds no case of the {args.suite} suite")
    infos = [line for info in infos for line in info(checks, window)]
    failed = sum(bool(problems) for *_, problems in cases)
    for name, bad, problems in cases:
        problem = f"first failure {bad[0]}" if bad else "".join(problems)
        print(f"FAIL {name}: {problem}" if problem else f"PASS {name}")
    for line in infos:
        print(f"INFO {line}")
    print(f"passed {len(cases) - failed} of {len(cases)} cases")
    return 1 if failed else 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euleradic",
        description="Exact Euler-graph path counts, good-path transport, "
                    "and the adic transformation.")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("table", help="grid of path counts from a base vertex")
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--q", type=int, required=True)
    t.add_argument("--imax", type=int, required=True)
    t.add_argument("--jmax", type=int, required=True)
    t.add_argument("--format", choices=("csv", "json"), default="csv")
    t.add_argument("--max-cells", type=int, default=DEFAULT_CELL_BUDGET)
    t.set_defaults(func=_cmd_table)

    v = sub.add_parser("verify", help="run a named invariant suite")
    v.add_argument("--suite", choices=sorted(_SUITES), required=True)
    for window in _WINDOW_FLAGS:
        v.add_argument(f"--{window}", type=int)    # default: the suite's
    v.add_argument("--max-cells", type=int, default=DEFAULT_CELL_BUDGET)
    v.add_argument("--max-enum", type=int, default=DEFAULT_ENUM_BUDGET)
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("converge", help="normalized dimension ratios along "
                                        "the diagonal, as CSV")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--diag", type=int, required=True, help="largest diagonal offset k")
    c.add_argument("--step", type=int, default=1)
    c.set_defaults(func=_cmd_converge)

    g = sub.add_parser("good", help="good and total path counts at one offset")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--i", type=int, required=True)
    g.add_argument("--j", type=int, required=True)
    g.add_argument("--method", choices=("dp", "enum"), default="dp")
    g.add_argument("--max-enum", type=int, default=DEFAULT_ENUM_BUDGET)
    g.set_defaults(func=_cmd_good)

    tr = sub.add_parser("transport", help="carry a path between equal-level bases")
    tr.add_argument("--from", dest="src", type=_pair, required=True, metavar="P,Q")
    tr.add_argument("--to", dest="dst", type=_pair, required=True, metavar="P,Q")
    tr.add_argument("--path", required=True)
    tr.set_defaults(func=_cmd_transport)

    o = sub.add_parser("orbit", help="stream all root paths to a vertex in "
                                     "successor order")
    o.add_argument("--vertex", type=_pair, required=True, metavar="X,Y")
    o.add_argument("--max-enum", type=int, default=DEFAULT_ENUM_BUDGET)
    o.set_defaults(func=_cmd_orbit)

    e = sub.add_parser("encode", help="encoding sequence of a path")
    e.add_argument("--path", required=True)
    e.set_defaults(func=_cmd_encode)

    d = sub.add_parser("decode", help="path reconstructed from an encoding "
                                      "sequence at a base")
    d.add_argument("--base", type=_pair, required=True, metavar="P,Q")
    d.add_argument("--code", required=True)
    d.set_defaults(func=_cmd_decode)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process, built on the first main() call: parse_args
    # leaves it as it was, and building it costs far more than a parse.
    # set_defaults(func=_cmd_*) binds each command function when the parser
    # is built, so rebinding a _cmd_* name later does not reach main().
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # The reader went away.  Point stdout at the null device so the
        # flush at exit finds nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: output closed before it was all written (broken pipe)",
              file=sys.stderr)
        return 2
    except (ArithmeticError, BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
