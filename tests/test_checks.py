"""The shared invariant checks report a planted defect.

`euleradic verify` and the acceptance criteria both run these checks, so
a check that reports nothing would blind both.  Each case makes one
library function that a check reads wrong at one cell and asserts that
the check reports exactly what that cell spoils, after a clean run on
the same window.
"""

import inspect
import tracemalloc
from fractions import Fraction

import pytest

from euleradic import ORIGIN, LabelScheme, checks, closed_form, is_good, minimal_path


def _at(base, off):
    return lambda b, o, *_: (tuple(b), tuple(o)) == (base, off)


def _wrong_at(fn, hit, spoil):
    # fn, except that spoil(result) is returned where hit(*args) holds.
    def planted(*args, **kwargs):
        result = fn(*args, **kwargs)
        return spoil(result) if hit(*args) else result
    return planted


def _spoil_table(table):
    table.cells[2][3] += 1
    return table


def _drop_last(paths):
    return iter(list(paths)[:-1])


def _repeat_first(paths):
    paths = list(paths)
    paths[1] = paths[0]
    return iter(paths)


def _repeat_first_good(paths):
    # the walk, yielding its first good path again in place of its second
    paths = list(paths)
    scheme = LabelScheme(paths[0].start)
    first, second = [k for k, x in enumerate(paths) if is_good(scheme, x)[0]][:2]
    paths[second] = paths[first]
    return iter(paths)


# check name, call, (name read by the check, where it is wrong, how),
# cells checked, what the check then reports; each row has its own id, so
# one check can have several rows
CASES = [
    pytest.param(
        "forms_agree",
        lambda: checks.forms_agree([ORIGIN], checks.grid(3, 3), checks.origin_form,
                                   closed_form),
        ("comtet_a00", lambda off: tuple(off) == (2, 1), lambda n: n + 1),
        16, [(0, 0, 2, 1)], id="forms_agree"),
    pytest.param(
        "closed_form_vs_recurrence",
        lambda: checks.closed_form_vs_recurrence(checks.grid(1, 1), checks.grid(3, 3),
                                                 checks.closed_form_table),
        ("recurrence_table", lambda base, *_: tuple(base) == (1, 1), _spoil_table),
        64, [(1, 1, 2, 3)], id="closed_form_vs_recurrence"),
    pytest.param(
        "closed_form_vs_recurrence",
        lambda: checks.closed_form_vs_recurrence(checks.grid(1, 1), checks.grid(3, 3),
                                                 checks.closed_form_table),
        ("closed_form_table", lambda base, *_: tuple(base) == (1, 0), _spoil_table),
        64, [(1, 0, 2, 3)], id="closed_form_vs_recurrence-closed_form_table"),
    pytest.param(
        "origin_vs_descent_oracle",
        lambda: checks.origin_vs_descent_oracle(
            [(i, s - i) for s in range(1, 5) for i in range(s + 1)]),
        ("classical_eulerian_oracle", lambda n, k: (n, k) == (4, 1), lambda n: n + 1),
        14, [(0, 0, 1, 2)], id="origin_vs_descent_oracle"),
    pytest.param(
        "coefficient_identity",
        lambda: checks.coefficient_identity(range(3), range(-5, 6), 4),
        ("coefficient_identity_check", lambda p, q, i: (p, q, i) == (1, -3, 2),
         lambda sides: (sides[0] + 1, sides[1])),
        132, [(1, -3, 2)], id="coefficient_identity"),
    pytest.param(
        "ratio_monotonicity",
        lambda: checks.ratio_monotonicity([(0, 1), (1, 2)], 4, 4),
        ("check_monotonicity", lambda base, *_: tuple(base) == (1, 2),
         lambda found: found + [(2, 3, "planted")]),
        50, [(1, 2, 2, 3, "planted")], id="ratio_monotonicity"),
    pytest.param(
        "sieve_vs_exhaustive",
        lambda: checks.sieve_vs_exhaustive(
            checks.grid(1, 1), [(i, s - i) for s in range(7) for i in range(s + 1)],
            max_enum=10**6),
        ("count_good_enumeration", _at((1, 1), (3, 3)), lambda n: n + 1),
        112, [(1, 1, 3, 3)], id="sieve_vs_exhaustive"),
    pytest.param(
        "nonemptiness_threshold",
        lambda: checks.nonemptiness_threshold(checks.grid(1, 1), checks.grid(4, 4)),
        ("count_good_dp", _at((1, 0), (2, 3)), lambda n: 0),
        100, [(1, 0, 2, 3)], id="nonemptiness_threshold"),
    pytest.param(
        "bad_paths_bounded",
        lambda: checks.bad_paths_bounded([(1, 1), (1, 2)], 5, 5),
        ("bad_path_bound", _at((1, 1), (3, 3)), lambda n: 0),
        72, [(1, 1, 3, 3)], id="bad_paths_bounded"),
    pytest.param(
        "transport_bijection",
        lambda: checks.transport_bijection(checks.level(1), [(3, 3), (3, 4)],
                                           max_paths=10**6),
        ("count_good_dp", _at((0, 1), (3, 3)), lambda n: n + 1),
        8, [((0, 1), (0, 1), (3, 4)), ((1, 0), (0, 1), (3, 4))],
        id="transport_bijection"),
    pytest.param(
        "transport_bijection",
        lambda: checks.transport_bijection(checks.level(1), [(3, 3), (3, 4)],
                                           max_paths=10**6),
        ("enumerate_paths", _at((0, 1), (3, 3)), _repeat_first_good),
        8, [((0, 1), (0, 1), (3, 4)), ((0, 1), (1, 0), (3, 4))],
        id="transport_bijection-repeated_good_path"),
    pytest.param(
        "orbits",
        lambda: checks.orbits([v for n in range(5) for v in checks.level(n)]),
        ("orbit", lambda v, *_: tuple(v) == (2, 2), _drop_last),
        15, [(2, 2)], id="orbits"),
    pytest.param(
        "orbits",
        lambda: checks.orbits([v for n in range(5) for v in checks.level(n)]),
        ("orbit", lambda v, *_: tuple(v) == (2, 2), _repeat_first),
        15, [(2, 2)], id="orbits-repeated_path"),
    pytest.param(
        "level_measures",
        lambda: checks.level_measures(range(6)),
        ("cylinder_measure", lambda n: n == 3, lambda m: m + Fraction(1, 10**6)),
        6, [3], id="level_measures"),
]


def test_every_check_has_a_case():
    helpers = {"grid", "level", "origin_form", "problems"}
    public = {name for name, fn in inspect.getmembers(checks, inspect.isfunction)
              if fn.__module__ == checks.__name__ and not name.startswith("_")}
    assert public - helpers == {case.values[0] for case in CASES}


@pytest.mark.parametrize("name,run,plant,checked,reported", CASES)
def test_check_reports_a_planted_defect(monkeypatch, name, run, plant, checked, reported):
    assert run() == ([], checked)
    target, hit, spoil = plant
    monkeypatch.setattr(checks, target, _wrong_at(getattr(checks, target), hit, spoil))
    assert run() == (reported, checked)


def test_closed_form_vs_recurrence_over_no_cells_checks_nothing():
    run = checks.closed_form_vs_recurrence(checks.grid(1, 1), [], checks.closed_form_table)
    assert run == ([], 0)
    assert checks.problems(run) == ["checked 0 cells"]


@pytest.mark.parametrize("cells", [[(-1, 0)], [(2, 3), (0, -2)]])
def test_closed_form_vs_recurrence_refuses_a_negative_cell(cells):
    with pytest.raises(IndexError, match="^cells must be nonnegative offsets$"):
        checks.closed_form_vs_recurrence([ORIGIN], cells, checks.closed_form_table)


def test_orbits_report_a_maximal_path_that_has_a_successor(monkeypatch):
    # The orbits case above spoils the walk; this one plants a successor
    # that steps past the maximal path of (2, 2) back to the minimal one.
    vertices = [v for n in range(5) for v in checks.level(n)]
    assert checks.orbits(vertices) == ([], 15)
    successor, last = checks.successor, checks.maximal_path((2, 2))
    monkeypatch.setattr(checks, "successor", lambda path: minimal_path((2, 2))
                        if path == last else successor(path))
    assert checks.orbits(vertices) == ([(2, 2)], 15)


@pytest.mark.parametrize("run", [
    lambda: checks.orbits([(3, 4)]),
    lambda: checks.transport_bijection(checks.level(0), [(3, 4)], max_paths=10**6),
], ids=["orbits", "transport_bijection"])
def test_a_walking_check_holds_no_path(run):
    # The origin has 15,619 paths to (3, 4).  Holding them as a list and a
    # set, or the good ones with their codes and images, peaks near 6 MiB.
    tracemalloc.start()
    try:
        result = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == ([], 1) and peak < 2 ** 20


def test_problems_fail_a_check_that_checked_nothing():
    assert checks.problems(([], 3)) == []
    assert checks.problems(([(0, 0, 1, 1)], 3)) == [(0, 0, 1, 1)]
    assert checks.problems(([], 0)) == ["checked 0 cells"]
    # a cap's skip is not counted: the cell of 2,416 paths is not checked
    capped = checks.sieve_vs_exhaustive([ORIGIN], [(1, 1), (3, 3)], max_enum=10)
    assert capped == ([], 1)
    assert checks.problems(([], 0)) == ["checked 0 cells"]
