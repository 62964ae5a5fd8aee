"""No library call leaves values behind: steps, symbols and their text live
only as long as the call or scheme that built them and the results that
hold them."""

import gc
import importlib
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import euleradic
import euleradic.paths as paths_module
from euleradic import (
    DecodeError,
    EncodingSequence,
    EncodingSymbol,
    EulerPath,
    LabelScheme,
    MaximalPathError,
    ORIGIN,
    PathValidationError,
    Step,
    Vertex,
    decode,
    encode,
    enumerate_paths,
    format_code,
    format_path,
    maximal_path,
    orbit,
    parse_code,
    parse_path,
    successor,
    validate,
)


_CONTAINERS = (dict, list, set)


def _size(value):
    # Entries of a container and of the containers inside it.
    items = value.values() if isinstance(value, dict) else value
    return len(value) + sum(_size(v) for v in items if isinstance(v, _CONTAINERS))


def module_sizes():
    """The size of every module-level dict, list and set of the package."""
    return {(name, attr): _size(value)
            for name, module in sorted(sys.modules.items())
            if name == "euleradic" or name.startswith("euleradic.")
            for attr, value in vars(module).items()
            if not attr.startswith("__") and isinstance(value, _CONTAINERS)}


def test_no_module_binds_state_that_calls_could_share():
    # A module-level list or set is a slot that one call could leave for
    # another; the only dicts are the constant tables of names and suites.
    for info in pkgutil.iter_modules(euleradic.__path__):
        importlib.import_module(f"euleradic.{info.name}")
    assert module_sizes().keys() == {("euleradic", "_SUBMODULE"),
                                     ("euleradic.cli", "_SUITES")}


def test_the_only_process_wide_caches_are_the_known_ones():
    # A functools cache outlives every call; each one is a decision, named here.
    for info in pkgutil.iter_modules(euleradic.__path__):
        importlib.import_module(f"euleradic.{info.name}")
    caches = {(name, attr) for name, module in sorted(sys.modules.items())
              if name == "euleradic" or name.startswith("euleradic.")
              for attr, value in vars(module).items() if hasattr(value, "cache_info")}
    assert caches == {("euleradic.eulerian", "_descent_histogram"), ("euleradic.cli", "_parser")}


# One-step results at a base with a bundle of 10**6 + 1 edges: each builds
# one step or symbol, at an index near 10**6, and keeps none.
@pytest.mark.parametrize("call, expected", [
    (lambda: maximal_path((10**6, 1)),
     EulerPath(ORIGIN, (Step("H", 1),) * 10**6 + (Step("V", 10**6 + 1),))),
    (lambda: decode(LabelScheme((10**6, 0)), parse_code("n=1000000;s1000002")),
     parse_path("(1000000,0):V1000001")),
    (lambda: encode(LabelScheme((10**6, 0)), parse_path("(1000000,0):V1000001")),
     parse_code("n=1000000;s1000002")),
], ids=["maximal_path", "decode", "encode"])
def test_a_one_step_result_at_a_large_base_adds_at_most_two_entries(call, expected):
    before = module_sizes()
    assert call() == expected
    assert module_sizes() == before


def _zigzag(n):
    # n steps from the root, each on the last edge of its bundle:
    # H1, V2, H2, V3, H3, ... so the edge indices reach n/2.
    x = y = 0
    steps = []
    for k in range(n):
        if k % 2:
            steps.append(Step("V", x + 1))
            y += 1
        else:
            steps.append(Step("H", y + 1))
            x += 1
    return EulerPath(ORIGIN, tuple(steps))


def _large_calls(n):
    # A round trip of an n-step zig-zag, the maximal path to (5n, 1) and the
    # successor of V1 H1^(5n); each result is dropped at once.
    zigzag = _zigzag(n)
    assert decode(LabelScheme(ORIGIN), encode(LabelScheme(ORIGIN), zigzag)) == zigzag
    assert maximal_path((5 * n, 1)).steps[-1] == Step("V", 5 * n + 1)
    long_path = EulerPath(ORIGIN, (Step("V", 1),) + (Step("H", 1),) * (5 * n))
    assert successor(long_path).steps[:3] == (Step("V", 1), Step("H", 2), Step("H", 1))


def test_nothing_is_retained_after_a_large_call():
    _large_calls(4)     # any one-time setup of the interpreter happens here
    gc.collect()
    tracemalloc.start()
    try:
        _large_calls(20000)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024


def test_a_table_key_is_a_plain_int():
    # An index is an integer, as a list index must be: a float coordinate
    # raises TypeError, and an int subclass comes back as a plain int.
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        maximal_path((3.0, 1))
    (last,) = maximal_path((True, 1)).steps[1:]
    assert last == Step("V", 2) and type(last.edge_index) is int
    (step,) = decode(LabelScheme((True, 0)), parse_code("n=1;s3")).steps
    assert step == Step("V", 2) and type(step.edge_index) is int


def _encode_a_float_index_on_an_unmarked_edge():
    # 20,000 V1 steps then H20001.0 from (0, 0): the last edge is unmarked,
    # and validate refuses its index before encode builds a symbol.
    steps = (Step("V", 1),) * 20000 + (Step("H", 20001.0),)
    return encode(LabelScheme((0, 0)), EulerPath(ORIGIN, steps))


# A float index must fail as a list index did and leave nothing behind: a
# step or symbol with a float index would print as "V3.0" in output.
@pytest.mark.parametrize("call, error", [
    (lambda: maximal_path((876543.0, 1)), TypeError),
    (_encode_a_float_index_on_an_unmarked_edge, PathValidationError),
    (lambda: decode(LabelScheme((0, 0)),
                    EncodingSequence(0, (EncodingSymbol("h", 876545.0),))), TypeError),
    (lambda: encode(LabelScheme((876546.0, 0)), parse_path("(876546,0):V1")), TypeError),
], ids=["maximal_path", "encode", "steps", "symbols"])
def test_a_float_index_raises_type_error_and_stores_nothing(call, error):
    before = module_sizes()
    with pytest.raises(error, match="cannot be interpreted as an integer"
                       if error is TypeError else "is not an integer"):
        call()
    assert module_sizes() == before


_FLOAT_PATH = EulerPath(ORIGIN, (Step("V", 1), Step("H", 2.0)))


def _check_float_path_refused():
    with pytest.raises(PathValidationError, match="step 2: edge index 2.0 is not"):
        validate(_FLOAT_PATH)
    with pytest.raises(PathValidationError, match="step 2: edge index 2.0 is not"):
        encode(LabelScheme((0, 0)), _FLOAT_PATH)


def test_a_float_index_is_refused_whatever_ran_before():
    _check_float_path_refused()
    assert encode(LabelScheme((0, 0)), parse_path("(0,0):V1,H2")) \
        == parse_code("n=0;s2,h1")
    _check_float_path_refused()


def test_a_float_index_is_refused_in_a_fresh_process():
    script = ("from euleradic import *\n"
              "path = EulerPath(ORIGIN, (Step('V', 1), Step('H', 2.0)))\n"
              "for call in (lambda: validate(path),\n"
              "             lambda: encode(LabelScheme((0, 0)), path)):\n"
              "    try:\n"
              "        call()\n"
              "    except PathValidationError as exc:\n"
              "        print(exc)\n")
    src = str(Path(paths_module.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out == "step 2: edge index 2.0 is not an integer\n" * 2


def test_enumeration_leaves_the_shared_tables_alone():
    before = module_sizes()
    assert sum(1 for _ in enumerate_paths((10**5, 0), (0, 1))) == 10**5 + 1
    assert module_sizes() == before


# Enumeration offsets stay at 2 or below: at base (3, 3) that is 3,552
# paths, where offset (3, 3) from base (2, 3) is 259,526.
small = st.integers(0, 3)
short = st.integers(0, 2)
coordinates = st.one_of(st.integers(0, 6), st.integers(0, 1000))


@st.composite
def valid_paths(draw, start, max_steps=10):
    """A valid path of up to max_steps fresh steps from `start`."""
    x, y = start
    steps = []
    for horizontal in draw(st.lists(st.booleans(), max_size=max_steps)):
        if horizontal:
            steps.append(Step("H", draw(st.integers(1, y + 1))))
            x += 1
        else:
            steps.append(Step("V", draw(st.integers(1, x + 1))))
            y += 1
    return EulerPath(Vertex(*start), tuple(steps))


def _enumerate(base, off):
    return list(enumerate_paths(base, off))


def _round_trip(scheme, path):
    return decode(scheme, encode(scheme, path))


def _transport(base, other, path):
    # Decoding at another base of the same level may find no path.
    try:
        return decode(LabelScheme(other), encode(LabelScheme(base), path))
    except DecodeError:
        return None


def _successor(path):
    try:
        return successor(path)
    except MaximalPathError:
        return None


def _orbit(v):
    return [format_path(path) for path in orbit(v)]


def _text_round_trip(scheme, path):
    code = encode(scheme, path)
    return parse_path(format_path(path)), parse_code(format_code(code))


@st.composite
def transports(draw):
    base = draw(st.tuples(coordinates, coordinates))
    t = draw(st.integers(0, sum(base)))
    return _transport, (base, (sum(base) - t, t), draw(valid_paths(base)))


def _based(fn):
    return st.tuples(coordinates, coordinates).flatmap(
        lambda base: st.tuples(st.just(fn), st.tuples(st.just(LabelScheme(base)),
                                                      valid_paths(base))))


calls = st.one_of(
    st.tuples(st.just(_enumerate), st.tuples(st.tuples(small, small),
                                             st.tuples(short, short))),
    _based(encode),
    _based(_round_trip),
    _based(_text_round_trip),
    transports(),
    st.tuples(st.just(_successor), st.tuples(valid_paths(ORIGIN, max_steps=20))),
    st.tuples(st.just(_orbit), st.tuples(st.tuples(small, small))),
    st.tuples(st.just(maximal_path), st.tuples(st.tuples(coordinates, coordinates))),
)


@given(st.lists(calls, max_size=6))
def test_no_module_level_container_changes_length(mix):
    before = module_sizes()
    for fn, args in mix:
        fn(*args)
    assert module_sizes() == before
