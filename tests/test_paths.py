"""Path objects, exhaustive enumeration, and the text format."""

import sys

import pytest

from math import factorial

from euleradic import (
    BudgetError,
    EulerPath,
    PathValidationError,
    Step,
    Vertex,
    closed_form,
    count_paths_enumeration,
    enumerate_paths,
    format_path,
    multiplicity,
    parse_path,
    path_sort_key,
    validate,
)


def _p(text):
    return parse_path(text)


def test_enumeration_order_origin_to_1_1():
    assert list(enumerate_paths((0, 0), (1, 1))) == [
        _p("(0,0):H1,V1"),
        _p("(0,0):H1,V2"),
        _p("(0,0):V1,H1"),
        _p("(0,0):V1,H2"),
    ]


def test_enumeration_is_sorted_and_distinct():
    for base, off in [((0, 0), (2, 2)), ((1, 0), (1, 2)), ((1, 1), (2, 1))]:
        paths = list(enumerate_paths(base, off))
        assert len(set(paths)) == len(paths) == closed_form(base, off)
        keys = [path_sort_key(x) for x in paths]
        assert keys == sorted(keys)
        for x in paths:
            assert validate(x) == Vertex(base[0] + off[0], base[1] + off[1])


def test_count_by_walking_matches_closed_form():
    for p in range(3):
        for q in range(3):
            for s in range(7):
                for i in range(s + 1):
                    off = (i, s - i)
                    assert count_paths_enumeration((p, q), off) \
                        == closed_form((p, q), off)


def test_long_walk_leaves_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    assert count_paths_enumeration((0, 0), (5000, 0)) == 1
    assert count_paths_enumeration((0, 1), (0, 5000)) == 1
    assert sys.getrecursionlimit() == limit


def test_axis_counts_are_powers():
    assert count_paths_enumeration((0, 2), (4, 0)) == 3 ** 4
    assert count_paths_enumeration((3, 0), (0, 3)) == 4 ** 3


def test_level_sums_by_enumeration():
    for n in range(7):
        total = sum(count_paths_enumeration((0, 0), (x, n - x))
                    for x in range(n + 1))
        assert total == factorial(n + 1)


def test_budget_is_checked_before_walking():
    with pytest.raises(BudgetError):
        enumerate_paths((0, 0), (10, 10), max_enum=100)
    with pytest.raises(BudgetError):
        count_paths_enumeration((0, 0), (10, 10), max_enum=100)


def test_multiplicity():
    assert multiplicity((2, 3), "H") == 4
    assert multiplicity((2, 3), "V") == 3
    assert multiplicity((0, 0), "H") == 1
    with pytest.raises(ValueError):
        multiplicity((1, 1), "D")


def test_validate_names_offending_step():
    assert validate(_p("(0,0):H1,V1")) == Vertex(1, 1)
    with pytest.raises(PathValidationError, match="step 2"):
        validate(_p("(0,0):H1,V3"))
    with pytest.raises(PathValidationError, match="step 1"):
        validate(EulerPath(Vertex(0, 0), (Step("X", 1),)))


def test_end_bookkeeping():
    path = _p("(2,1):H1,H2,V3,H1")
    assert path.end() == Vertex(5, 2)
    assert _p("(4,7):").end() == Vertex(4, 7)


def test_text_round_trip():
    for text in ["(0,0):H1,V1", "(2,3):", "(1,0):V1,H1,V2,H2",
                 "(10,20):H21,V11"]:
        assert format_path(parse_path(text)) == text
    path = EulerPath(Vertex(1, 2), (Step("V", 1), Step("H", 3)))
    assert parse_path(format_path(path)) == path


@pytest.mark.parametrize("bad", [
    "0,0:H1",
    "(0,0)H1",
    "(0,0):H0",
    "(0,0):Z1",
    "(0,0):H1,,V1",
    "(-1,0):H1",
    "(0,0):H01",
])
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        parse_path(bad)
