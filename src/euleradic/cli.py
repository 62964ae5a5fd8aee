"""Command-line front end: count tables, verification suites, convergence
data, good-path queries, transports, orbits, and code round-trips.

Exit codes: 0 success, 1 verification failure, 2 usage or resource error
or output closed early.
All output is byte-deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .adic import compare, cylinder_measure, maximal_path, orbit, successor
from .encoding import encode, format_code, parse_code, decode, transport
from .errors import BudgetError, DecodeError, MaximalPathError, PathValidationError
from .eulerian import (DEFAULT_CELL_BUDGET, ORIGIN, Vertex, _count,
                       classical_eulerian_oracle, closed_form, closed_form_sym,
                       coefficient_identity_check, comtet_a00, dim_between,
                       recurrence_table)
from .goodpaths import (LabelScheme, bad_path_bound, count_good_dp,
                        count_good_enumeration, good_count_table, is_good)
from .paths import DEFAULT_ENUM_BUDGET, enumerate_paths, format_path, parse_path
from .ratios import check_monotonicity, convergence_report


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
    table = recurrence_table((args.p, args.q), args.imax, args.jmax,
                             max_cells=args.max_cells)
    if args.format == "json":
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
    base, off = (args.p, args.q), (args.i, args.j)
    if args.method == "enum":
        g = count_good_enumeration(base, off, max_enum=args.max_enum)
    else:
        g = count_good_dp(base, off)
    a = _count(*base, *off)
    print(f"G={_decimal(g)} A={_decimal(a)} G/A={_frac(Fraction(g, a))}")
    return 0


def _cmd_transport(args) -> int:
    path = parse_path(args.path)
    if tuple(path.start) != args.src:
        raise ValueError(f"path starts at {tuple(path.start)}, --from says {args.src}")
    moved = transport(LabelScheme(Vertex(*args.src)), LabelScheme(Vertex(*args.dst)), path)
    print(format_path(moved))
    print(format_code(encode(LabelScheme(Vertex(*args.dst)), moved)))
    return 0


def _cmd_orbit(args) -> int:
    for path in orbit(args.vertex, max_enum=args.max_enum):
        print(format_path(path))
    return 0


def _cmd_encode(args) -> int:
    path = parse_path(args.path)
    print(format_code(encode(LabelScheme(Vertex(*path.start)), path)))
    return 0


def _cmd_decode(args) -> int:
    code = parse_code(args.code)
    print(format_path(decode(LabelScheme(Vertex(*args.base)), code)))
    return 0


# ---------------------------------------------------------------- verify


def _suite_recurrence(args):
    cases = []
    for p in range(args.pmax + 1):
        for q in range(args.qmax + 1):
            table = recurrence_table((p, q), args.imax, args.jmax,
                                     max_cells=args.max_cells)
            bad = [(i, j)
                   for i in range(args.imax + 1)
                   for j in range(args.jmax + 1)
                   if closed_form((p, q), (i, j)) != table[i, j]]
            cases.append((f"closed form equals recurrence at base ({p},{q}), "
                          f"window {args.imax}x{args.jmax}",
                          not bad, f"first mismatch at {bad[0]}" if bad else ""))
    return cases, []


def _suite_closedform(args):
    window = [(i, j) for i in range(args.imax + 1) for j in range(args.jmax + 1)]
    bad_sym = [(p, q, off) for p in range(args.pmax + 1) for q in range(args.qmax + 1)
               for off in window
               if closed_form((p, q), off) != closed_form_sym((p, q), off)]
    cases = [("symmetric variant equals primary form on the window",
              not bad_sym, f"first mismatch {bad_sym[0]}" if bad_sym else "")]
    bad_o = [off for off in window if comtet_a00(off) != closed_form((0, 0), off)]
    cases.append(("origin form equals primary form at base (0,0)",
                  not bad_o, f"first mismatch {bad_o[0]}" if bad_o else ""))
    bad_cl = [(i, j) for (i, j) in window
              if 1 <= i + j <= 7 and comtet_a00((i, j))
              != classical_eulerian_oracle(i + j + 1, i)]
    cases.append(("origin counts match descent-counting oracle (n <= 8)",
                  not bad_cl, f"first mismatch {bad_cl[0]}" if bad_cl else ""))
    return cases, []


def _suite_monotonicity(args):
    cases = []
    for p in range(args.pmax + 1):
        for q in range(1, args.qmax + 1):
            bad = check_monotonicity((p, q), args.imax, args.jmax)
            cases.append((f"ratio inequalities hold at base ({p},{q}), "
                          f"window {args.imax}x{args.jmax}",
                          not bad, f"first violation {bad[0]}" if bad else ""))
    return cases, []


def _suite_identity(args):
    cases = []
    for p in range(args.pmax + 1):
        bad = [(q, i) for q in range(-15, 16) for i in range(1, args.imax + 1)
               if (lambda s: s[0] != s[1])(coefficient_identity_check(p, q, i))]
        cases.append((f"coefficient identity at p={p}, i <= {args.imax}, "
                      f"q in [-15,15]",
                      not bad, f"first mismatch {bad[0]}" if bad else ""))
    return cases, []


def _suite_goodcount(args):
    cases = []
    bad_eq = []
    for p in range(args.pmax + 1):
        for q in range(args.qmax + 1):
            for s in range(args.summax + 1):
                for i in range(s + 1):
                    off = (i, s - i)
                    if closed_form((p, q), off) > args.max_enum:
                        continue
                    if (count_good_dp((p, q), off)
                            != count_good_enumeration((p, q), off,
                                                      max_enum=args.max_enum)):
                        bad_eq.append((p, q, off))
    cases.append((f"DP count equals exhaustive count (p,q <= {args.pmax},"
                  f"{args.qmax}; i+j <= {args.summax})",
                  not bad_eq, f"first mismatch {bad_eq[0]}" if bad_eq else ""))
    bad_ne = []
    for p in range(args.pmax + 1):
        for q in range(args.qmax + 1):
            for i in range(6):
                for j in range(6):
                    positive = count_good_dp((p, q), (i, j)) > 0
                    if positive != (i >= q + 1 and j >= p + 1):
                        bad_ne.append((p, q, i, j))
    cases.append(("good paths exist exactly when i >= q+1 and j >= p+1",
                  not bad_ne, f"first mismatch {bad_ne[0]}" if bad_ne else ""))
    bad_bd = []
    for p in range(1, args.pmax + 1):
        for q in range(1, args.qmax + 1):
            g = good_count_table((p, q), 8, 8)
            for i in range(9):
                for j in range(9):
                    a = closed_form((p, q), (i, j))
                    if a - g[i][j] > bad_path_bound((p, q), (i, j)):
                        bad_bd.append((p, q, i, j))
    cases.append(("non-good paths within the two-family bound (p,q >= 1)",
                  not bad_bd, f"first violation {bad_bd[0]}" if bad_bd else ""))
    return cases, []


def _suite_bijection(args):
    cases = []
    infos = []
    for n in range(args.levels + 1):
        bases = [(p, n - p) for p in range(n + 1)]
        ok = True
        detail = ""
        for src in bases:
            scheme_src = LabelScheme(Vertex(*src))
            for i in range(n + 2, args.epmax + 1):
                for j in range(n + 2, args.epmax + 1):
                    off_src = (i - src[0], j - src[1])
                    if closed_form(src, off_src) > args.max_enum:
                        continue
                    goods = [x for x in enumerate_paths(src, off_src,
                                                        max_enum=args.max_enum)
                             if is_good(scheme_src, x)[0]]
                    for dst in bases:
                        scheme_dst = LabelScheme(Vertex(*dst))
                        seen = set()
                        for x in goods:
                            y = transport(scheme_src, scheme_dst, x)
                            if y.end() != Vertex(i, j) or y in seen or \
                               not is_good(scheme_dst, y)[0] or \
                               transport(scheme_dst, scheme_src, y) != x:
                                ok = False
                                detail = (f"failure at {src}->{dst}, "
                                          f"endpoint ({i},{j})")
                                break
                            seen.add(y)
                        expected = count_good_dp(dst, (i - dst[0], j - dst[1]))
                        if ok and len(seen) != expected:
                            ok = False
                            detail = (f"image size {len(seen)} != {expected} at "
                                      f"{src}->{dst}, endpoint ({i},{j})")
                if not ok:
                    break
            if not ok:
                break
        cases.append((f"transport is a bijection between good-path sets at "
                      f"level {n}, endpoints <= ({args.epmax},{args.epmax})",
                      ok, detail))
    # Below-threshold report: counts at endpoints with i or j = n+1 are not
    # covered by the bijection guarantee; report observed equality only.
    for n in range(1, args.levels + 1):
        bases = [(p, n - p) for p in range(n + 1)]
        for ep in [(n + 1, n + 1), (n + 1, n + 2), (n + 2, n + 1)]:
            counts = [count_good_dp(b, (ep[0] - b[0], ep[1] - b[1])) for b in bases]
            verdict = "equal" if len(set(counts)) == 1 else "UNEQUAL"
            infos.append(f"boundary endpoint {ep} at level {n}: "
                         f"G values {counts} {verdict} (not asserted)")
    return cases, infos


def _suite_orbit(args):
    cases = []
    for n in range(args.levels + 1):
        ok = True
        detail = ""
        for x in range(n + 1):
            v = (x, n - x)
            paths = list(orbit(v, max_enum=args.max_enum))
            expected = dim_between(ORIGIN, v)
            increasing = all(compare(a, b) < 0 for a, b in zip(paths, paths[1:]))
            same_set = set(paths) == set(enumerate_paths(ORIGIN, v,
                                                         max_enum=args.max_enum))
            if not (len(paths) == expected and increasing and same_set):
                ok = False
                detail = f"orbit defect at vertex {v}"
                break
            try:
                successor(maximal_path(v))
                ok, detail = False, f"successor of maximal path at {v} did not fail"
                break
            except MaximalPathError:
                pass
        cases.append((f"orbits at level {n} are complete, ordered, and "
                      f"stop at the maximal path", ok, detail))
    total_ok = True
    for n in range(args.levels + 2):
        total = sum(dim_between(ORIGIN, (x, n - x)) * cylinder_measure(n)
                    for x in range(n + 1))
        if total != 1:
            total_ok = False
    cases.append((f"cylinder measures sum to 1 on each level <= "
                  f"{args.levels + 1}", total_ok, ""))
    return cases, []


_SUITES = {
    "recurrence": _suite_recurrence,
    "closedform": _suite_closedform,
    "monotonicity": _suite_monotonicity,
    "identity": _suite_identity,
    "goodcount": _suite_goodcount,
    "bijection": _suite_bijection,
    "orbit": _suite_orbit,
}


def _cmd_verify(args) -> int:
    cases, infos = _SUITES[args.suite](args)
    for name, ok, detail in cases:
        if ok:
            print(f"PASS {name}")
        else:
            print(f"FAIL {name}: {detail}")
    for line in infos:
        print(f"INFO {line}")
    failed = sum(1 for _, ok, _ in cases if not ok)
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
    v.add_argument("--pmax", type=int, default=None)
    v.add_argument("--qmax", type=int, default=None)
    v.add_argument("--imax", type=int, default=None)
    v.add_argument("--jmax", type=int, default=None)
    v.add_argument("--summax", type=int, default=None)
    v.add_argument("--levels", type=int, default=None)
    v.add_argument("--epmax", type=int, default=None)
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


_VERIFY_DEFAULTS = {
    "recurrence": dict(pmax=2, qmax=2, imax=8, jmax=8),
    "closedform": dict(pmax=3, qmax=3, imax=6, jmax=6),
    "monotonicity": dict(pmax=2, qmax=3, imax=10, jmax=10),
    "identity": dict(pmax=3, imax=8),
    "goodcount": dict(pmax=2, qmax=2, summax=6),
    "bijection": dict(levels=2, epmax=4),
    "orbit": dict(levels=5),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        for key, value in _VERIFY_DEFAULTS[args.suite].items():
            if getattr(args, key) is None:
                setattr(args, key, value)
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
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, PathValidationError, DecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
