"""Command-line front end: count tables, verification suites, convergence
data, good-path queries, transports, orbits, and code round-trips.  The
table _COMMANDS declares every command, with its options and handler.

Exit codes: 0 success, 1 verification failure, 2 usage, resource or
arithmetic error or output closed early.  All output is byte-deterministic
for fixed flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from itertools import islice
from typing import TYPE_CHECKING, Iterable

# Only errors is imported here: it holds the budget defaults _COMMANDS
# reads.  Each command imports the modules it runs when it is called, so a
# launch loads only those, and a name looked up at call time is whatever
# the module holds then.
from .errors import DEFAULT_CELL_BUDGET, DEFAULT_ENUM_BUDGET, BudgetError

if TYPE_CHECKING:
    from fractions import Fraction

_STR_BITS = 14000   # ints this wide (4,215 digits) pass CPython's 4,300-digit str limit


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
    """Exact decimal text of a nonnegative int of any size: str up to
    _STR_BITS bits, and past them the halves split at a power of ten."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20       # about half the digit count
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def _decimals(counts: list[int]) -> list[str]:
    # A row's texts: one str pass when its largest count fits under _STR_BITS.
    fits = max(counts, default=0).bit_length() <= _STR_BITS
    return list(map(str if fits else _decimal, counts))


def _row_texts(cells: Iterable[list[int]], mirrored: bool):
    # Each row's texts; in a mirrored table, (i, j) with j < i <= jmax reuses (j, i)'s.
    above: list[list[str]] = []
    for i, row in enumerate(cells):
        texts = [r[i] for r in above] if i < len(row) else []
        texts += _decimals(row[len(texts):])
        if mirrored:
            above.append(texts)
        yield texts


def _frac(f: Fraction) -> str:
    return f"{_decimal(f.numerator)}/{_decimal(f.denominator)}"


def _dec(f: Fraction) -> str:
    return f"{float(f):.15g}"


# ---------------------------------------------------------------- commands


def _cmd_table(args) -> int:
    from .eulerian import _fill, _table_base

    p, q = _table_base((args.p, args.q), args.imax, args.jmax, args.max_cells)
    # A_{p,q}(i, j) = A_{q,p}(j, i), so a table with p = q is symmetric.
    rows = _row_texts(_fill(p, q, args.imax, args.jmax), p == q)
    if args.format == "json":
        # Laid out as json.dumps would, cells written by _decimal, a row at a
        # time: the params head, each row after its separator, then "]}".
        sep = (f'{{"params": {{"p": {p}, "q": {q}, "imax": {args.imax}, '
               f'"jmax": {args.jmax}}}, "rows": [')
        for texts in rows:
            print(sep + "[" + ", ".join(texts) + "]", end="")
            sep = ", "
        print("]}")
    else:
        print("i\\j," + ",".join(str(j) for j in range(args.jmax + 1)))
        for i, texts in enumerate(rows):
            print(f"{i}," + ",".join(texts))
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

    dst = LabelScheme(args.dst)
    moved = transport(LabelScheme(args.src), dst, parse_path(args.path))
    print(format_path(moved))
    print(format_code(encode(dst, moved)))
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


_WINDOW_FLAGS = tuple(dict.fromkeys(key for defaults, *_ in _SUITES.values()
                                    for key in defaults))


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


def _required(*names, **keywords):
    return tuple((f"--{name}", dict(required=True, **keywords)) for name in names)


_MAX_CELLS = "--max-cells", dict(type=int, default=DEFAULT_CELL_BUDGET)
_MAX_ENUM = "--max-enum", dict(type=int, default=DEFAULT_ENUM_BUDGET)

# Every command, in the order --help lists them: its name, help line,
# handler, and options as (flag, add_argument keywords) rows.
_COMMANDS = (
    ("table", "grid of path counts from a base vertex", _cmd_table, (
        *_required("p", "q", "imax", "jmax", type=int),
        ("--format", dict(choices=("csv", "json"), default="csv")), _MAX_CELLS)),
    ("verify", "run a named invariant suite", _cmd_verify, (
        *_required("suite", choices=tuple(sorted(_SUITES))),
        *((f"--{key}", dict(type=int)) for key in _WINDOW_FLAGS),  # default: the suite's
        _MAX_CELLS, _MAX_ENUM)),
    ("converge", "normalized dimension ratios along the diagonal, as CSV", _cmd_converge, (
        *_required("p", "q", type=int),
        *_required("diag", type=int, help="largest diagonal offset k"),
        ("--step", dict(type=int, default=1)))),
    ("good", "good and total path counts at one offset", _cmd_good, (
        *_required("p", "q", "i", "j", type=int),
        ("--method", dict(choices=("dp", "enum"), default="dp")), _MAX_ENUM)),
    ("transport", "carry a path between equal-level bases", _cmd_transport, (
        *_required("from", dest="src", type=_pair, metavar="P,Q"),
        *_required("to", dest="dst", type=_pair, metavar="P,Q"), *_required("path"))),
    ("orbit", "stream all root paths to a vertex in successor order", _cmd_orbit, (
        *_required("vertex", type=_pair, metavar="X,Y"), _MAX_ENUM)),
    ("encode", "encoding sequence of a path", _cmd_encode, _required("path")),
    ("decode", "path reconstructed from an encoding sequence at a base", _cmd_decode, (
        *_required("base", type=_pair, metavar="P,Q"), *_required("code"))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euleradic",
        description="Exact Euler-graph path counts, good-path transport, "
                    "and the adic transformation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, handler, options in _COMMANDS:
        command = sub.add_parser(name, help=summary)
        for flag, keywords in options:
            command.add_argument(flag, **keywords)
        command.set_defaults(func=handler)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process, built on the first main() call: parse_args
    # leaves it as it was, and building it costs far more than a parse.
    # _COMMANDS declares every command and holds its _cmd_* function from
    # import on, so rebinding a _cmd_* name later does not reach main().
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
