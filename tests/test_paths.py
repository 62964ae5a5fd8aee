"""Path objects, exhaustive enumeration, and the text format."""

import re
import sys

import pytest
from hypothesis import given, strategies as st

from math import factorial

from test_shared_tables import module_sizes

import euleradic.paths as paths_module
from euleradic.eulerian import _as_vertex
from euleradic import (
    BudgetError,
    EulerPath,
    LabelScheme,
    PathValidationError,
    Step,
    Vertex,
    closed_form,
    compare,
    count_good_enumeration,
    count_paths_enumeration,
    cylinder_frequency,
    decode,
    encode,
    enumerate_paths,
    format_path,
    is_good,
    maximal_path,
    parse_code,
    parse_path,
    successor,
    transport,
    unmarked_trail,
    validate,
)


def path_sort_key(path):
    """Key realizing the enumeration order among equal-length paths."""
    return tuple((0 if s.direction == "H" else 1, s.edge_index) for s in path.steps)


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


@pytest.mark.parametrize("base", [(p, q) for p in range(3) for q in range(3)])
def test_the_three_walkers_agree_path_by_path(base):
    # The counters count what enumerate_paths yields, and the good counter
    # counts the yielded paths that is_good calls good, offset (0, 0) included.
    scheme = LabelScheme(base)
    for s in range(7):
        for i in range(s + 1):
            off = (i, s - i)
            walked = list(enumerate_paths(base, off))
            assert count_paths_enumeration(base, off) == len(walked)
            assert count_good_enumeration(base, off) \
                == sum(is_good(scheme, x)[0] for x in walked)


def test_each_walk_owns_its_table():
    # Two walks of one cell, advanced alternately, each yield the paths of
    # one walk alone: a walk pops its start row in place.
    alone = list(enumerate_paths((1, 0), (2, 2)))
    first, second = enumerate_paths((1, 0), (2, 2)), enumerate_paths((1, 0), (2, 2))
    pairs = list(zip(first, second))
    assert [a for a, _ in pairs] == [b for _, b in pairs] == alone
    assert next(first, None) is next(second, None) is None


def test_one_step_walks_over_wide_bundles():
    # The widest rows and masks any walker builds: one bundle of p + 1 edges.
    assert count_paths_enumeration((10 ** 5, 0), (0, 1)) == 10 ** 5 + 1
    assert count_good_enumeration((20000, 0), (0, 1)) == 0


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


def test_the_budget_refuses_on_the_lower_bound_before_the_exact_count(monkeypatch):
    # C(20, 10) = 184,756 paths take edge 1 of every bundle to (10, 10)
    def no_count(*args):
        raise AssertionError("the exact count was computed")
    monkeypatch.setattr(paths_module, "_count", no_count)
    with pytest.raises(BudgetError, match=r"^the 18-bit lower bound C\(20, 10\) on the count "
                       r"of paths from \(0, 0\) at offset \(10, 10\) exceeds the "
                       r"enumeration budget 184755$"):
        enumerate_paths((0, 0), (10, 10), max_enum=184_755)
    monkeypatch.undo()
    # the bound fits, so the exact count refuses
    with pytest.raises(BudgetError, match=r"^the \d+-bit count of paths from \(0, 0\) "):
        count_paths_enumeration((0, 0), (10, 10), max_enum=184_756)


def test_multiplicity():
    # The bundle sizes y+1 (horizontal) and x+1 (vertical), as validate
    # enforces them: the last edge of each bundle is taken, the next is not.
    for start, direction, size in [((2, 3), "H", 4), ((2, 3), "V", 3),
                                   ((0, 0), "H", 1), ((0, 0), "V", 1)]:
        path = EulerPath(Vertex(*start), (Step(direction, size),))
        x, y = start
        assert validate(path) == ((x + 1, y) if direction == "H" else (x, y + 1))
        with pytest.raises(PathValidationError) as err:
            validate(path._replace(steps=(Step(direction, size + 1),)))
        assert str(err.value) == (f"step 1: edge index {size + 1} outside bundle "
                                  f"of size {size} at vertex {start}")
    with pytest.raises(ValueError, match="unknown direction 'D'"):
        validate(EulerPath(Vertex(1, 1), (Step("D", 1),)))


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


def test_a_one_shot_start_names_the_bad_step():
    # The start is read once; the step error counts from what was read.
    message = "step 1: edge index 5 outside bundle of size 1 at vertex (0, 0)"
    for call in (validate, lambda path: encode(LabelScheme((0, 0)), path)):
        with pytest.raises(PathValidationError) as err:
            call(EulerPath(iter((0, 0)), (Step("H", 5),)))
        assert str(err.value) == message


# Every public per-path call that takes a path from a fixed start: a
# scheme's base, here (0, 0), or the root.
_ROOT_SCHEME = LabelScheme((0, 0))
START_CHECKED = {
    "is_good": lambda path: is_good(_ROOT_SCHEME, path),
    "encode": lambda path: encode(_ROOT_SCHEME, path),
    "unmarked_trail": lambda path: unmarked_trail(_ROOT_SCHEME, path),
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


class _SubVertex(Vertex):
    """A Vertex subclass: not exact, so validate normalises it."""


class _Int(int):
    """An int subclass coordinate."""


class _Index:
    """A coordinate that is only an index."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


_FROM_1_0 = EulerPath(Vertex(1, 0), (Step("H", 1), Step("V", 2)))
_FROM_0_1 = EulerPath(Vertex(0, 1), (Step("H", 2), Step("V", 2)))
_FLOAT = (TypeError, "'float' object cannot be interpreted as an integer")
_NEGATIVE = (ValueError, "vertex coordinates must be nonnegative, got (-1, 0)")
_NOT_1_0 = (ValueError, "path starts at (0, 1), expected (1, 0)")
_NOT_0_1 = (ValueError, "path starts at (1, 0), expected (0, 1)")


def _check_outcome(call, expected):
    # The call returns the expected end vertex, with plain int coordinates,
    # or raises the expected error with exactly the expected text.
    if isinstance(expected, Vertex):
        got = call()
        assert got == expected and type(got) is Vertex
        assert all(type(c) is int for c in got)
    else:
        error, message = expected
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("start, matching, mismatching", [
    (Vertex(1.0, 0), _FLOAT, _FLOAT),
    (Vertex(-1, 0), _NEGATIVE, _NEGATIVE),
    (Vertex(True, 0), Vertex(2, 1), _NOT_1_0),
    ([1, 0], Vertex(2, 1), _NOT_1_0),
    (Vertex(1, 0), Vertex(2, 1), _NOT_1_0),
    (Vertex(0, 1), _NOT_0_1, Vertex(1, 2)),
    (_SubVertex(1, 0), Vertex(2, 1), _NOT_1_0),
    (Vertex(_Int(1), _Int(0)), Vertex(2, 1), _NOT_1_0),
    (Vertex(_Index(1), 0), Vertex(2, 1), _NOT_1_0),
    (Vertex(_Index(-1), 0), _NEGATIVE, _NEGATIVE),
], ids=["float", "negative", "bool", "list", "exact", "other", "subclass", "int-subclass",
        "index-only", "negative-index"])
def test_validate_normalises_any_start_as_before(start, matching, mismatching):
    _check_outcome(lambda: validate(_FROM_1_0, start), matching)
    _check_outcome(lambda: validate(_FROM_0_1, start), mismatching)


@pytest.mark.parametrize("start, expected", [
    (Vertex(1, 0), Vertex(2, 1)),
    (Vertex(True, 0), Vertex(2, 1)),
    ((1, 0), Vertex(2, 1)),
    ([1, 0], Vertex(2, 1)),
    (Vertex(1.0, 0), _FLOAT),
    (Vertex(-1, 0), _NEGATIVE),
    (_SubVertex(1, 0), Vertex(2, 1)),
    (Vertex(_Int(1), 0), Vertex(2, 1)),
    (Vertex(_Index(1), _Index(0)), Vertex(2, 1)),
    (Vertex(_Index(1), -1), (ValueError, "vertex coordinates must be nonnegative, "
                                         "got (1, -1)")),
], ids=["exact", "bool", "tuple", "list", "float", "negative", "subclass", "int-subclass",
        "index-only", "negative-index"])
def test_validate_against_the_path_own_start(start, expected):
    # start is path.start: the comparison is skipped, but a start that is
    # not exact is still normalised (or refused) as the path's own start.
    path = EulerPath(start, _FROM_1_0.steps)
    _check_outcome(lambda: validate(path, path.start), expected)
    _check_outcome(lambda: validate(path), expected)
    # An equal start given as another object is compared, with the same outcome.
    _check_outcome(lambda: validate(path, Vertex(1, 0)), expected)


def _reference_validate(path, start=None):
    # validate as it was before it read an exact start as it is: both
    # starts normalised by _as_vertex on every call, path.start first, and
    # compared as tuples.  Kept as an oracle for the start check.
    x, y = s = _as_vertex(path.start)
    if start is not None:
        start = _as_vertex(start)
        if (x, y) != start:
            raise ValueError(f"path starts at {(x, y)}, expected {tuple(start)}")
    for direction, idx in path.steps:
        if direction == "H":
            if not (isinstance(idx, int) and 1 <= idx <= y + 1):
                break
            x += 1
        elif direction == "V" and isinstance(idx, int) and 1 <= idx <= x + 1:
            y += 1
        else:
            break
    else:
        return Vertex(x, y)
    raise paths_module._step_error(path, s, x, y)


def _raised(call):
    # The type and text of what the call raises, or None.
    try:
        call()
    except (PathValidationError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return None


# A start of each kind at (x, y): exact, normalised to (x, y), or refused.
_STARTS = {
    "exact": Vertex,
    "subclass": _SubVertex,
    "tuple": lambda x, y: (x, y),
    "list": lambda x, y: [x, y],
    "bool": lambda x, y: Vertex(x, bool(y) if y < 2 else y),
    "int-subclass": lambda x, y: Vertex(_Int(x), y),
    "index-only": lambda x, y: Vertex(x, _Index(y)),
    "float-x": lambda x, y: Vertex(float(x), y),
    "float-y": lambda x, y: Vertex(x, float(y)),
    "negative-x": lambda x, y: Vertex(-1 - x, y),
    "negative-y": lambda x, y: Vertex(x, -1 - y),
    "short": lambda x, y: (x,),
    "long": lambda x, y: (x, y, 0),
    "not-iterable": lambda x, y: 5,
}
_kinds = st.sampled_from(sorted(_STARTS))
_vertices = st.tuples(st.integers(0, 3), st.integers(0, 3))
_step_lists = st.lists(st.builds(Step, st.sampled_from("HVX"), st.integers(0, 4)), max_size=6)


@given(_vertices, _kinds, st.one_of(st.none(), _vertices), _step_lists)
def test_every_start_raises_as_the_reference_validate(at, kind, elsewhere, step_list):
    # The path's start of any kind, against a start of every kind at the
    # same vertex or elsewhere, and against a scheme's base there.
    there = elsewhere or at
    path = EulerPath(_STARTS[kind](*at), tuple(step_list))
    scheme = LabelScheme(there)
    for start in (None, path.start, scheme.base, *(make(*there) for make in _STARTS.values())):
        expected = _raised(lambda: _reference_validate(path, start))
        assert _raised(lambda: validate(path, start)) == expected
        if expected is None:
            assert validate(path, start) == _reference_validate(path, start)
    expected = _raised(lambda: _reference_validate(path, scheme.base))
    for call in (encode, is_good, unmarked_trail, lambda s, x: transport(s, s, x)):
        assert _raised(lambda: call(scheme, path)) == expected


def test_end_bookkeeping():
    path = _p("(2,1):H1,H2,V3,H1")
    assert path.end() == Vertex(5, 2)
    assert EulerPath(path.start, tuple(map(tuple, path.steps))).end() == Vertex(5, 2)
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


def _mutated_start_paths():
    # Two paths on one list start, mutated after the first is yielded.
    start = [0, 0]
    yield EulerPath(start, (Step("H", 1),))
    start[0] = 1
    yield EulerPath(start, (Step("V", 2),))


@pytest.mark.parametrize("paths", [
    # Equal starts, distinct objects; (True, 0) equals (1, 0) but prints apart.
    lambda: [EulerPath(Vertex(2, 3), (Step("H", 4),)),
             EulerPath(Vertex(2, 3), (Step("V", 3),)),
             EulerPath(Vertex(True, 0), ()), EulerPath(Vertex(1, 0), ())],
    lambda: [EulerPath(start, ()) for start in [Vertex(0, 0), Vertex(1, 0)] * 3],
    lambda: [EulerPath((4, 5), (Step("V", 5),)), EulerPath((4, 5), ())],
    _mutated_start_paths,
], ids=["equal-starts", "alternating", "plain-tuple", "mutated-list"])
def test_format_paths_reuses_a_start_text_only_while_it_holds(paths):
    # The orbit command's formatter keeps the text of a start across lines.
    assert list(paths_module._format_paths(paths())) == list(map(format_path, paths()))


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
