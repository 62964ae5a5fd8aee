"""The shared Step and EncodingSymbol tables hold only what was looked up."""

import pytest
from hypothesis import given, strategies as st

import euleradic.encoding as encoding_module
import euleradic.paths as paths_module
from euleradic import (
    DecodeError,
    EncodingSymbol,
    EulerPath,
    LabelScheme,
    MaximalPathError,
    ORIGIN,
    Step,
    Vertex,
    decode,
    encode,
    enumerate_paths,
    maximal_path,
    parse_code,
    parse_path,
    successor,
)


def _table_entries():
    return (sum(map(len, paths_module._STEPS.values()))
            + sum(map(len, encoding_module._SYMBOLS.values())))


# One-step results at a base with a bundle of 10**6 + 1 edges: each needs
# one shared step or symbol, at an index near 10**6.
@pytest.mark.parametrize("call, expected", [
    (lambda: maximal_path((10**6, 1)),
     EulerPath(ORIGIN, (Step("H", 1),) * 10**6 + (Step("V", 10**6 + 1),))),
    (lambda: decode(LabelScheme((10**6, 0)), parse_code("n=1000000;s1000002")),
     parse_path("(1000000,0):V1000001")),
    (lambda: encode(LabelScheme((10**6, 0)), parse_path("(1000000,0):V1000001")),
     parse_code("n=1000000;s1000002")),
], ids=["maximal_path", "decode", "encode"])
def test_a_one_step_result_at_a_large_base_adds_at_most_two_entries(call, expected):
    before = _table_entries()
    assert call() == expected
    assert _table_entries() - before <= 2


def _check_tables():
    for d, table in paths_module._STEPS.items():
        for k, step in table.items():
            assert type(k) is int
            assert type(step) is Step and step == Step(d, k)
            assert paths_module._STEP_TEXT[id(step)] == f"{d}{k}"
    for kind, table in encoding_module._SYMBOLS.items():
        for k, symbol in table.items():
            assert type(k) is int
            assert type(symbol) is EncodingSymbol and symbol == EncodingSymbol(kind, k)


def test_a_table_key_is_a_plain_int():
    made = []
    table = paths_module._Shared(lambda k: made.append(k) or -k)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        table[3.0]
    assert table == {} and made == []
    assert table[True] == -1 and [type(k) for k in table] == [int] and made == [1]


def _encode_a_float_index_on_an_unmarked_edge():
    # 20,000 V1 steps then H20001.0 from (0, 0): the last edge is unmarked
    # and passes validate, so encode looks up h-symbol 20000.0.
    steps = (Step("V", 1),) * 20000 + (Step("H", 20001.0),)
    return encode(LabelScheme((0, 0)), EulerPath(ORIGIN, steps))


# A float index must fail as a list index did and leave every table as it
# was: a stored float key would print as "V3.0" in later valid output.  A
# float equal to a key already stored finds that key's entry, so these
# indices are ones no other test looks up.
@pytest.mark.parametrize("call", [
    lambda: maximal_path((876543.0, 1)),
    lambda: LabelScheme((0, 2)).label_steps[3.0],
    _encode_a_float_index_on_an_unmarked_edge,
    lambda: paths_module._STEPS["V"][876545.0],
    lambda: encoding_module._SYMBOLS["h"][876546.0],
], ids=["maximal_path", "label_steps", "encode", "steps", "symbols"])
def test_a_float_index_raises_type_error_and_stores_nothing(call):
    # The symbols of the valid steps before the float in the encode case
    # are stored first; store them here so only the float counts.
    encode(LabelScheme((0, 0)), parse_path("(0,0):V1,V1"))
    before = _table_entries()
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()
    assert _table_entries() == before
    _check_tables()


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


@st.composite
def transports(draw):
    base = draw(st.tuples(coordinates, coordinates))
    t = draw(st.integers(0, sum(base)))
    return _transport, (base, (sum(base) - t, t), draw(valid_paths(base)))


calls = st.one_of(
    st.tuples(st.just(_enumerate), st.tuples(st.tuples(small, small),
                                             st.tuples(short, short))),
    st.tuples(st.just(encode), st.tuples(coordinates, coordinates).flatmap(
        lambda base: st.tuples(st.just(LabelScheme(base)), valid_paths(base)))),
    transports(),
    st.tuples(st.just(_successor), st.tuples(valid_paths(ORIGIN, max_steps=20))),
    st.tuples(st.just(maximal_path), st.tuples(st.tuples(coordinates, coordinates))),
)


@given(st.lists(calls, max_size=6))
def test_every_shared_entry_is_the_value_of_its_key(mix):
    for fn, args in mix:
        fn(*args)
    _check_tables()
