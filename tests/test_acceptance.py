"""Acceptance gate: one check per shipped guarantee, one line per verdict.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Windows and thresholds marked "calibrated" were frozen from
independent oracle runs before the implementation existed; they are not
tuned to the code under test.
"""

import time

import pytest

from fractions import Fraction
from math import factorial

from euleradic import (
    BudgetError,
    CountTable,
    LabelScheme,
    Vertex,
    closed_form,
    closed_form_sym,
    closed_form_table,
    comtet_a00,
    convergence_report,
    count_good_dp,
    count_paths_enumeration,
    decode,
    encode,
    enumerate_paths,
    good_count_table,
    recurrence_table,
    unmarked_trail,
)
from euleradic import checks

# Enumeration windows below contain up to ~2*10^7 paths in a single cell.
WALK_BUDGET = 20_000_000


def _report(num, problems, text):
    ok = not problems
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num:02d}: first failure {problems[0]}"


def _cell_by_cell(form):
    # form(base, off) as a table form: a CountTable of one call per cell.
    def table(base, imax, jmax, *, max_cells):
        return CountTable(base, imax, jmax, [[form(base, (i, j)) for j in range(jmax + 1)]
                                             for i in range(imax + 1)])
    return table


def test_criterion_01_closed_forms_equal_recurrence():
    t0 = time.perf_counter()
    problems = []
    for table_form in (closed_form_table, _cell_by_cell(closed_form),
                       _cell_by_cell(closed_form_sym)):
        problems += checks.problems(checks.closed_form_vs_recurrence(
            checks.grid(4, 4), [c for c in checks.grid(12, 12) if c != (0, 0)],
            table_form))
    elapsed = time.perf_counter() - t0
    if elapsed >= 10:
        problems.append(f"took {elapsed:.1f}s, bound 10s")
    _report(1, problems, "closed form, symmetric form, and recurrence agree "
                         f"for p,q <= 4, i,j <= 12 ({elapsed:.1f}s)")


def test_criterion_02_enumeration_matches_closed_form():
    t0 = time.perf_counter()
    problems = []
    for p in range(3):
        for q in range(3):
            for s in range(9):
                for i in range(s + 1):
                    off = (i, s - i)
                    walked = count_paths_enumeration((p, q), off,
                                                     max_enum=WALK_BUDGET)
                    if walked != closed_form((p, q), off):
                        problems.append((p, q, off))
    # the largest cell exceeds the default walking budget by design
    with pytest.raises(BudgetError):
        count_paths_enumeration((2, 2), (4, 4))
    elapsed = time.perf_counter() - t0
    if elapsed >= 30:
        problems.append(f"took {elapsed:.1f}s, bound 30s")
    _report(2, problems, "exhaustive walk equals closed form for p,q <= 2, "
                         f"i+j <= 8 ({elapsed:.1f}s)")


def test_criterion_03_descent_oracle_and_level_sums():
    problems = checks.problems(checks.origin_vs_descent_oracle(
        [(i, s - i) for s in range(1, 9) for i in range(s + 1)]))
    for s in range(9):
        if sum(comtet_a00((i, s - i)) for i in range(s + 1)) != factorial(s + 1):
            problems.append(("level sum", s))
    _report(3, problems, "origin counts match the descent oracle (i+j <= 8) "
                         "and level sums are (n+1)!")


def test_criterion_04_coefficient_identity():
    problems = checks.problems(
        checks.coefficient_identity(range(5), range(-15, 16), 10))
    _report(4, problems, "coefficient identity holds for p <= 4, i <= 10, "
                         "all 31 integer q in [-15,15]")


def test_criterion_05_monotonicity():
    t0 = time.perf_counter()
    problems = checks.problems(checks.ratio_monotonicity(
        [(p, q) for p in range(4) for q in range(1, 5)], 15, 15))
    elapsed = time.perf_counter() - t0
    if elapsed >= 10:
        problems.append(f"took {elapsed:.1f}s, bound 10s")
    _report(5, problems, "ratio inequalities have zero violations for "
                         f"p <= 3, 1 <= q <= 4, i,j <= 15 ({elapsed:.1f}s)")


def test_criterion_06_directional_limit():
    problems = []
    for p in range(5):
        for q in range(1, 6 - p):
            num = recurrence_table((p, q), 5, 40)
            den = recurrence_table((p, q - 1), 5, 40)
            for i in range(6):
                limit = Fraction(p + q + i + 1, p + q + 1)
                values = [Fraction(num[i, j], den[i, j]) for j in range(41)]
                if any(a < b for a, b in zip(values, values[1:])):
                    problems.append(("not non-increasing", p, q, i))
                if any(v < limit for v in values):
                    problems.append(("below limit", p, q, i))
    _report(6, problems, "ratio sequences over j <= 40 are non-increasing "
                         "and bounded below by (p+q+i+1)/(p+q+1)")


def test_criterion_07_good_path_counts():
    bases = checks.grid(2, 2)
    diagonals = [(i, s - i) for s in range(9) for i in range(s + 1)]
    bad, checked = checks.sieve_vs_exhaustive(bases, diagonals, max_enum=WALK_BUDGET)
    if checked != len(bases) * len(diagonals):    # a cell over WALK_BUDGET was skipped
        bad = [*bad, f"checked {checked} of {len(bases) * len(diagonals)} cells"]
    problems = (
        bad
        + checks.problems(checks.nonemptiness_threshold(bases, checks.grid(6, 6)))
        + checks.problems(checks.bad_paths_bounded(
            [(p, q) for p in range(1, 4) for q in range(1, 4)], 12, 12)))
    _report(7, problems, "good-path DP equals enumeration (p,q <= 2, "
                         "i+j <= 8), nonemptiness threshold, and bad-path "
                         "bound (p,q <= 3, i,j <= 12)")


def test_criterion_08_good_fraction_at_scale():
    t0 = time.perf_counter()
    g = count_good_dp((1, 1), (100, 100))
    elapsed = time.perf_counter() - t0
    problems = []
    fraction = Fraction(g, closed_form((1, 1), (100, 100)))
    # calibrated: the oracle run gives 0.9420...; 99/100 is not reached at
    # this offset (the complement shrinks like 1/(p+q+k))
    if fraction < Fraction(94, 100):
        problems.append(f"fraction {float(fraction):.4f} below 94/100")
    if elapsed >= 5:
        problems.append(f"DP took {elapsed:.1f}s, bound 5s")
    _report(8, problems, "good fraction at (1,1)+(100,100) is at least the "
                         f"calibrated 94/100 (DP {elapsed:.1f}s)")


def test_criterion_09_transport_bijection():
    problems = []
    # exhaustive transports, capped to sources with at most 5*10^4 good
    # paths (the full window peaks above 10^11 paths and cannot be walked);
    # the count equalities below cover the whole window exactly
    cap = 50_000
    for n in range(4):
        problems += checks.problems(checks.transport_bijection(
            checks.level(n), [(i, j) for i in range(n + 2, 8) for j in range(n + 2, 8)],
            max_paths=1_000_000, max_good=cap))
        if problems:
            _report(9, problems, "transport bijection")
    # cross-base good-count equality on the full stated windows
    for n, span in [(0, 7), (1, 7), (2, 7), (3, 7), (0, 40), (1, 40),
                    (2, 40), (3, 40), (4, 40)]:
        bases = [(p, n - p) for p in range(n + 1)]
        tables = {b: good_count_table(b, span - b[0], span - b[1])
                  for b in bases}
        for i in range(n + 2, span + 1):
            for j in range(n + 2, span + 1):
                counts = {tables[b][i - b[0]][j - b[1]] for b in bases}
                if len(counts) != 1:
                    problems.append(("count equality", n, (i, j)))
    _report(9, problems, "transport is a bijection (level <= 3, endpoints "
                         "<= 7, sources capped at 5e4 good paths) and good "
                         "counts agree across bases (level <= 4, endpoints "
                         "<= 40)")


def test_criterion_10_encoding_recursion_and_round_trip():
    problems = []
    # per-path checks capped to cells with at most 10^5 paths (341 of the
    # 405 cells in the stated window; the rest exceed 10^6 paths each)
    cap = 100_000
    checked = 0
    for p in range(3):
        for q in range(3):
            scheme = LabelScheme(Vertex(p, q))
            for s in range(9):
                for di in range(s + 1):
                    off = (di, s - di)
                    if closed_form((p, q), off) > cap:
                        continue
                    for path in enumerate_paths((p, q), off):
                        code = encode(scheme, path)
                        trail = unmarked_trail(scheme, path)
                        h = v = 0
                        for m, sym in enumerate(code.symbols, start=1):
                            if sym.kind == "s":
                                h, v = h + 1, v + 1
                            elif sym.kind == "h":
                                v += 1
                            else:
                                h += 1
                            if trail[m] != (h, v):
                                problems.append(("recursion", p, q, path))
                                break
                        if decode(scheme, code) != path:
                            problems.append(("round trip", p, q, path))
                        checked += 1
                    if problems:
                        _report(10, problems, "encoding recursion")
    _report(10, problems, "unmarked-count recursion and decode(encode(x)) = x "
                          f"on {checked} paths (p,q <= 2, i+j-p-q <= 8, "
                          "cells capped at 1e5 paths)")


def test_criterion_11_dimension_ratio_convergence():
    t0 = time.perf_counter()
    problems = []
    samples = [(10, 10), (20, 20), (40, 40), (60, 60)]
    for n in range(4):
        for x in range(n + 1):
            records = convergence_report((x, n - x), samples)
            gaps = [r.abs_gap for r in records]
            if n == 0:
                if any(g != 0 for g in gaps):
                    problems.append(("root gap nonzero", x))
                continue
            if records[-1].abs_gap / records[-1].target >= Fraction(1, 10):
                problems.append(("gap too large", (x, n - x)))
            if not all(a > b for a, b in zip(gaps, gaps[1:])):
                problems.append(("gaps not decreasing", (x, n - x)))
    elapsed = time.perf_counter() - t0
    if elapsed >= 5:
        problems.append(f"took {elapsed:.1f}s, bound 5s")
    _report(11, problems, "normalized dimension ratios at level <= 3 are "
                          "within 10% of 1/(n+1)! at +(60,60) with strictly "
                          f"decreasing gaps ({elapsed:.1f}s)")


def test_criterion_12_adic_orbits_and_measure():
    problems = (
        checks.problems(checks.orbits([v for n in range(7) for v in checks.level(n)]))
        + checks.problems(checks.level_measures(range(9))))
    _report(12, problems, "orbits at level <= 6 are complete and ordered, "
                          "successor fails only at the maximal path, and "
                          "level measures sum to 1 for n <= 8")
