"""Path objects, exhaustive enumeration, and the text format."""

import re
import sys

import pytest
from hypothesis import given, strategies as st

from math import factorial

from test_shared_tables import module_sizes

import euleradic.paths as paths_module
from euleradic import (
    BudgetError,
    EulerPath,
    LabelScheme,
    PathValidationError,
    Step,
    Vertex,
    closed_form,
    compare,
    count_paths_enumeration,
    cylinder_frequency,
    decode,
    encode,
    enumerate_paths,
    format_path,
    is_good,
    maximal_path,
    multiplicity,
    parse_code,
    parse_path,
    path_sort_key,
    successor,
    transport,
    unmarked_counts,
    unmarked_trail,
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
    for base, off in [((0, 0), (2, 2)), ((1, 0), (1, 2)), ((1, 1), (2, 1)),
                      ((0, 0), (0, 0)), ((0, 2), (3, 0)), ((3, 0), (0, 2)),
                      ((2, 0), (2, 3))]:
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
    assert len(list(enumerate_paths((0, 1), (0, 5000)))) == 1
    assert len(list(enumerate_paths((0, 0), (5000, 0)))) == 1
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
    assert validate(_p("(2,1):V3,H3")) == Vertex(3, 2)
    with pytest.raises(PathValidationError, match="step 2"):
        validate(_p("(0,0):H1,V3"))
    with pytest.raises(PathValidationError, match="step 1"):
        validate(EulerPath(Vertex(0, 0), (Step("X", 1),)))
    # The message names the vertex before the offending step.
    with pytest.raises(PathValidationError) as err:
        validate(_p("(1,0):V1,H3"))
    assert str(err.value) == ("step 2: edge index 3 outside bundle of size 2 "
                              "at vertex (1, 1)")
    with pytest.raises(PathValidationError) as err:
        validate(EulerPath(Vertex(0, 0), (Step("H", 1), Step("D", 1))))
    assert str(err.value) == "step 2: unknown direction 'D'"


# Every public per-path call that takes a path from a fixed start: a
# scheme's base, here (0, 0), or the root.
_ROOT_SCHEME = LabelScheme((0, 0))
START_CHECKED = {
    "is_good": lambda path: is_good(_ROOT_SCHEME, path),
    "encode": lambda path: encode(_ROOT_SCHEME, path),
    "unmarked_trail": lambda path: unmarked_trail(_ROOT_SCHEME, path),
    "unmarked_counts": lambda path: unmarked_counts(_ROOT_SCHEME, path, 0),
    "transport": lambda path: transport(_ROOT_SCHEME, _ROOT_SCHEME, path),
    "compare": lambda path: compare(_p("(0,0):H1,V1"), path),
    "successor": successor,
    "cylinder_frequency": lambda path: cylinder_frequency(path, (3, 3)),
}


@pytest.mark.parametrize("call", START_CHECKED.values(), ids=START_CHECKED)
def test_a_wrong_start_is_refused_before_any_step(call):
    message = re.escape("path starts at (1, 0), expected (0, 0)")
    with pytest.raises(ValueError, match=message):
        call(_p("(1,0):H1,V1"))
    # The start is checked before the invalid second step.
    with pytest.raises(ValueError, match=message):
        call(_p("(1,0):H1,V9"))
    for start in [(0, 0, 0), (0,)]:
        with pytest.raises(ValueError):
            call(EulerPath(start, (Step("H", 1), Step("V", 1))))


def test_end_bookkeeping():
    path = _p("(2,1):H1,H2,V3,H1")
    assert path.end() == Vertex(5, 2)
    assert _p("(4,7):").end() == Vertex(4, 7)


def test_format_and_end_take_a_plain_start():
    path = EulerPath((0, 0), (Step("H", 1),))
    assert format_path(path) == "(0,0):H1"
    assert path.end() == Vertex(1, 0)


def test_enumerated_steps_are_shared_and_equal_fresh_ones():
    found = list(enumerate_paths((1, 1), (2, 2)))
    first_seen = {}
    for path in found:
        for step in path.steps:
            fresh = Step(step.direction, step.edge_index)
            assert step == fresh and hash(step) == hash(fresh)
            assert type(step) is Step
            # Equal steps of any two paths of the cell are one object.
            assert first_seen.setdefault(step, step) is step


def test_parse_path_leaves_the_step_table_alone():
    before = module_sizes()
    path = parse_path(f"(0,0):H{10**9}")
    assert path.steps == (Step("H", 10**9),)
    with pytest.raises(PathValidationError):
        validate(path)
    assert format_path(path) == f"(0,0):H{10**9}"
    assert module_sizes() == before


def _reference_format(path):
    x, y = path.start
    return f"({x},{y}):" + ",".join(f"{s.direction}{s.edge_index}" for s in path.steps)


directions = st.sampled_from("HV")
# Steps of three kinds: steps the library builds (Vk ending a maximal path,
# Hk decoded from the one-symbol code s_k at base (0, k-1)), steps parsed
# from text, and steps built directly with an edge index far past those.
any_step = st.one_of(
    st.builds(lambda k: maximal_path((k - 1, 1)).steps[-1], st.integers(1, 30)),
    st.builds(lambda k: decode(LabelScheme((0, k - 1)),
                               parse_code(f"n={k - 1};s{k}")).steps[0], st.integers(1, 30)),
    st.builds(lambda d, k: parse_path(f"(0,0):{d}{k}").steps[0], directions,
              st.integers(1, 10**6)),
    st.builds(Step, directions, st.integers(10**9, 10**12)))


@given(st.integers(0, 10**6), st.integers(0, 10**6), st.lists(any_step, max_size=10))
def test_format_path_matches_the_per_step_text(x, y, steps):
    path = EulerPath(Vertex(x, y), tuple(steps))
    assert format_path(path) == _reference_format(path)
    # The orbit command's formatter reuses each step's text across paths.
    reverse = EulerPath(Vertex(x, y), tuple(steps[::-1]))
    assert list(paths_module._format_paths([path, reverse, path])) \
        == [format_path(path), format_path(reverse), format_path(path)]


def test_format_path_writes_each_step_as_itself():
    # A step equal to a shared one but built otherwise keeps its own text.
    path = EulerPath(Vertex(0, 0), (Step("H", 1), Step("V", True), Step("H", 2.0)))
    assert format_path(path) == _reference_format(path) == "(0,0):H1,VTrue,H2.0"


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
    "(01,0):H1",
    "(\u0663,0):H1",
    "(0,0):H1\u0661",
])
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        parse_path(bad)


# Decimal digits other than 0-9 that int() would read.
NON_ASCII_ZEROS = [0x0660, 0x06F0, 0x0966, 0x0E50, 0xFF10, 0x1D7CE]


@st.composite
def corrupted(draw, text, body_start):
    """The text with one defect: a number emptied, given a leading zero or
    one of its digits written in another script, or an empty token added
    to the comma-separated body that starts at body_start."""
    how = draw(st.sampled_from(["empty number", "leading zero",
                                "non-ASCII digit", "empty token"]))
    if how == "empty token":
        at = draw(st.sampled_from([body_start, len(text)] + [
            k for k in range(body_start, len(text)) if text[k] == ","]))
        return text[:at] + "," + text[at:]
    a, b = draw(st.sampled_from([m.span() for m in re.finditer("[0-9]+", text)]))
    number = text[a:b]
    if how == "empty number":
        number = ""
    elif how == "leading zero":
        number = "0" + number
    else:
        k = draw(st.integers(0, len(number) - 1))
        digit = chr(draw(st.sampled_from(NON_ASCII_ZEROS)) + int(number[k]))
        number = number[:k] + digit + number[k + 1:]
    return text[:a] + number + text[b:]


euler_paths = st.builds(
    lambda x, y, steps: EulerPath(Vertex(x, y), tuple(steps)),
    st.integers(0, 10**12), st.integers(0, 10**12),
    st.lists(st.builds(Step, st.sampled_from("HV"), st.integers(1, 10**6)),
             max_size=8))


@given(euler_paths)
def test_text_round_trip_on_random_paths(path):
    assert parse_path(format_path(path)) == path


@given(st.data(), euler_paths)
def test_parse_rejects_corrupted_text(data, path):
    text = format_path(path)
    bad = data.draw(corrupted(text, text.index(":") + 1))
    with pytest.raises(ValueError):
        parse_path(bad)
