"""Encoding sequences, decoding, and transport between bases."""

import time

import pytest
from hypothesis import given, strategies as st

from test_paths import corrupted
from test_shared_tables import module_sizes

from euleradic import (
    DecodeError,
    EncodingSequence,
    EncodingSymbol,
    EulerPath,
    LabelScheme,
    PathValidationError,
    Step,
    Vertex,
    count_good_dp,
    decode,
    encode,
    enumerate_paths,
    format_code,
    is_good,
    parse_code,
    parse_path,
    transport,
    unmarked_counts,
    unmarked_trail,
    validate,
)


def _scheme(p, q):
    return LabelScheme(Vertex(p, q))


def _code(level, *tokens):
    return EncodingSequence(level, tuple(
        EncodingSymbol(t[0], int(t[1:])) for t in tokens))


def _path(base, steps):
    return EulerPath(Vertex(*base), tuple(Step(d, k) for d, k in steps))


def _symbol_recursion(code):
    # (h, v) after each prefix of the code: a marked symbol raises both
    # counts by one, an unmarked one only the opposite direction's count.
    h = v = 0
    yield h, v
    for sym in code.symbols:
        if sym.kind == "s":
            h, v = h + 1, v + 1
        elif sym.kind == "h":
            v += 1
        else:
            h += 1
        yield h, v


def test_encode_examples():
    s = _scheme(0, 0)
    assert encode(s, _path((0, 0), [("H", 1), ("V", 2)])) == _code(0, "s1", "v1")
    assert encode(s, _path((0, 0), [("V", 1), ("H", 2)])) == _code(0, "s2", "h1")
    assert encode(s, _path((0, 0), [("H", 1), ("V", 1)])) == _code(0, "s1", "s2")
    s11 = _scheme(1, 1)
    assert encode(s11, _path((1, 1), [("H", 1), ("V", 2), ("H", 3)])) \
        == _code(2, "s1", "s4", "h2")


def test_encode_rejects_wrong_start():
    with pytest.raises(ValueError):
        encode(_scheme(0, 0), _path((1, 0), [("H", 1)]))


def test_unmarked_counts_examples():
    s = _scheme(0, 0)
    path = _path((0, 0), [("H", 1), ("V", 2)])
    assert unmarked_counts(s, path, 0) == (0, 0)
    assert unmarked_counts(s, _path((0, 0), [("H", 1)]), 1) == (1, 1)
    assert unmarked_counts(s, path, 2) == (2, 1)


def test_unmarked_counts_follow_step_recursion():
    for base in [(0, 0), (1, 0), (1, 1), (2, 1)]:
        scheme = _scheme(*base)
        for off in [(2, 2), (3, 1), (1, 3)]:
            for path in enumerate_paths(base, off):
                counts = _symbol_recursion(encode(scheme, path))
                for m, hv in enumerate(counts):
                    assert unmarked_counts(scheme, path, m) == hv


def test_unmarked_counts_rejects_invalid_paths():
    s = _scheme(0, 0)
    bad = parse_path("(0,0):H5")
    with pytest.raises(PathValidationError):
        encode(s, bad)
    for m in (0, 1):
        with pytest.raises(PathValidationError):
            unmarked_counts(s, bad, m)
    with pytest.raises(PathValidationError):
        unmarked_trail(s, bad)


def test_unmarked_trail_examples():
    s = _scheme(0, 0)
    assert unmarked_trail(s, _path((0, 0), [])) == [(0, 0)]
    assert unmarked_trail(s, _path((0, 0), [("H", 1), ("V", 2)])) \
        == [(0, 0), (1, 1), (2, 1)]
    s11 = _scheme(1, 1)
    assert unmarked_trail(s11, _path((1, 1), [("H", 1), ("V", 2), ("H", 3)])) \
        == [(0, 0), (1, 1), (2, 2), (2, 3)]


def test_unmarked_counts_checks_m_then_base_then_path():
    s = _scheme(0, 0)
    elsewhere = parse_path("(1,0):H5")
    with pytest.raises(ValueError, match="step index 2 outside"):
        unmarked_counts(s, elsewhere, 2)
    with pytest.raises(ValueError, match="path starts at"):
        unmarked_counts(s, elsewhere, 1)
    with pytest.raises(ValueError, match="path starts at"):
        unmarked_trail(s, elsewhere)
    with pytest.raises(PathValidationError, match="step 1"):
        unmarked_counts(s, parse_path("(0,0):H5"), 1)


def test_decode_inverts_encode():
    for base in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)]:
        scheme = _scheme(*base)
        for off in [(0, 0), (1, 2), (2, 2), (3, 1)]:
            for path in enumerate_paths(base, off):
                assert decode(scheme, encode(scheme, path)) == path


def test_encoded_and_decoded_values_equal_fresh_ones():
    scheme = _scheme(1, 1)
    for path in enumerate_paths((1, 1), (2, 3)):
        code = encode(scheme, path)
        for sym in code.symbols:
            fresh = EncodingSymbol(sym.kind, sym.index)
            assert sym == fresh and hash(sym) == hash(fresh)
            assert type(sym) is EncodingSymbol
        for decoded in (decode(scheme, code), decode(scheme, parse_code(format_code(code)))):
            fresh = EulerPath(Vertex(1, 1), tuple(Step(*s) for s in decoded.steps))
            assert decoded == fresh == path and hash(decoded) == hash(fresh)
            assert all(type(step) is Step for step in decoded.steps)


def test_parse_code_leaves_the_symbol_table_alone():
    before = module_sizes()
    code = parse_code(f"n=0;h{10**9}")
    assert code.symbols == (EncodingSymbol("h", 10**9),)
    with pytest.raises(DecodeError):
        decode(_scheme(0, 0), code)
    assert module_sizes() == before


def test_a_float_marked_index_raises_as_an_unmarked_one_does():
    # A marked index goes through operator.index like an unmarked one: both
    # raise the same TypeError, where s1.0 used to fail inside a shift.
    for kind in "shv":
        code = EncodingSequence(0, (EncodingSymbol(kind, 1.0),))
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            decode(_scheme(0, 0), code)
    # A bool index is an int: True is s1, and False is named as given.
    assert decode(_scheme(0, 0), EncodingSequence(0, (EncodingSymbol("s", True),))) \
        == _path((0, 0), [("H", 1)])
    with pytest.raises(DecodeError, match="no label s_False"):
        decode(_scheme(0, 0), EncodingSequence(0, (EncodingSymbol("s", False),)))


def test_decode_examples_and_errors():
    s = _scheme(0, 0)
    assert decode(s, _code(0, "s1", "v1")) == _path((0, 0), [("H", 1), ("V", 2)])
    with pytest.raises(DecodeError):
        decode(s, _code(0, "h1"))
    with pytest.raises(DecodeError):
        decode(s, _code(0, "s1", "s1"))
    with pytest.raises(DecodeError):
        decode(s, _code(0, "s3"))
    with pytest.raises(ValueError):
        decode(s, _code(1, "s1"))


def test_transport_is_bijection_level_one():
    src, dst = _scheme(1, 0), _scheme(0, 1)
    goods = [x for x in enumerate_paths((1, 0), (2, 3))
             if is_good(src, x)[0]]
    assert len(goods) == count_good_dp((1, 0), (2, 3))
    image = set()
    for x in goods:
        y = transport(src, dst, x)
        assert y.end() == Vertex(3, 3)
        assert is_good(dst, y)[0]
        assert transport(dst, src, y) == x
        image.add(y)
    assert len(image) == count_good_dp((0, 1), (3, 2))


def test_transport_identity_same_base():
    s = _scheme(1, 1)
    for x in enumerate_paths((1, 1), (2, 2)):
        assert transport(s, s, x) == x


def test_transport_composes():
    a, b, c = _scheme(2, 0), _scheme(1, 1), _scheme(0, 2)
    for x in enumerate_paths((2, 0), (2, 4)):
        if not is_good(a, x)[0]:
            continue
        via = transport(b, c, transport(a, b, x))
        assert via == transport(a, c, x)


def test_transport_requires_equal_levels():
    with pytest.raises(ValueError):
        transport(_scheme(0, 0), _scheme(1, 0),
                  _path((0, 0), [("H", 1), ("V", 1)]))


def test_code_text_round_trip():
    code = _code(2, "s1", "s4", "h2", "v1")
    assert format_code(code) == "n=2;s1,s4,h2,v1"
    assert parse_code("n=2;s1,s4,h2,v1") == code
    assert parse_code(format_code(_code(0))) == _code(0)


@pytest.mark.parametrize("bad", [
    "s1,v1",
    "n=2 s1",
    "n=-1;s1",
    "n=2;x1",
    "n=2;s0",
    "n=2;s1,s1",
    "n=2;s1,,v1",
    "n=02;s1",
    "n=\u0662;s1",
])
def test_parse_code_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        parse_code(bad)


@st.composite
def codes(draw):
    """A code with any level and symbols, its s-indices distinct."""
    symbols = draw(st.lists(st.builds(EncodingSymbol, st.sampled_from("shv"),
                                      st.integers(1, 10**6)), max_size=8))
    kept, marked = [], set()
    for sym in symbols:
        if sym.kind == "s":
            if sym.index in marked:
                continue
            marked.add(sym.index)
        kept.append(sym)
    return EncodingSequence(draw(st.integers(0, 10**12)), tuple(kept))


@given(codes())
def test_code_text_round_trip_on_random_codes(code):
    assert parse_code(format_code(code)) == code


@given(st.data(), codes())
def test_parse_code_rejects_corrupted_text(data, code):
    text = format_code(code)
    bad = data.draw(corrupted(text, text.index(";") + 1))
    with pytest.raises(ValueError):
        parse_code(bad)


# Property tests on random bases with p, q <= 4 and random valid paths.

@st.composite
def based_paths(draw, max_steps=30, level=None):
    """A scheme and a valid path of up to max_steps steps from its base,
    which has p, q <= 4 or the given level."""
    if level is None:
        p, q = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    else:
        p = draw(st.integers(0, level))
        q = level - p
    x, y = p, q
    steps = []
    for horizontal in draw(st.lists(st.booleans(), max_size=max_steps)):
        if horizontal:
            steps.append(Step("H", draw(st.integers(1, y + 1))))
            x += 1
        else:
            steps.append(Step("V", draw(st.integers(1, x + 1))))
            y += 1
    return _scheme(p, q), EulerPath(Vertex(p, q), tuple(steps))


@st.composite
def deep_good_paths(draw):
    """A scheme, a good path from its base whose endpoint (i, j) has
    i, j >= p+q+2, and another base of the same level."""
    p, q = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    n = p + q
    i = draw(st.integers(n + 2, n + 6))
    j = draw(st.integers(n + 2, n + 6))
    directions = draw(st.permutations("H" * (i - p) + "V" * (j - q)))
    # Which H (V) step, counted in order, takes each labeled edge.
    h_label = dict(zip(draw(st.permutations(range(i - p))), range(1, q + 2)))
    v_label = dict(zip(draw(st.permutations(range(j - q))), range(1, p + 2)))
    x, y = p, q
    steps = []
    for d in directions:
        if d == "H":
            k = h_label.get(x - p) or draw(st.integers(1, y + 1))
            x += 1
        else:
            k = v_label.get(y - q) or draw(st.integers(1, x + 1))
            y += 1
        steps.append(Step(d, k))
    other = draw(st.integers(0, n))
    return _scheme(p, q), EulerPath(Vertex(p, q), tuple(steps)), _scheme(other, n - other)


def _labels_by_rule(p, q, path):
    # Horizontal edge k <= q+1 carries s_k, vertical edge k <= p+1
    # carries s_{q+1+k}; the mask has bit a-1 for each label s_a taken.
    mask = 0
    for step in path.steps:
        if step.direction == "H" and step.edge_index <= q + 1:
            mask |= 1 << (step.edge_index - 1)
        elif step.direction == "V" and step.edge_index <= p + 1:
            mask |= 1 << (q + step.edge_index)
    return mask


@given(based_paths())
def test_decode_inverts_encode_on_random_paths(case):
    scheme, path = case
    assert decode(scheme, encode(scheme, path)) == path


@given(based_paths())
def test_is_good_mask_is_the_label_rule(case):
    scheme, path = case
    p, q = scheme.base
    mask = _labels_by_rule(p, q, path)
    assert is_good(scheme, path) == (mask == (1 << (p + q + 2)) - 1, mask)


@given(based_paths())
def test_unmarked_counts_follow_the_symbol_recursion(case):
    scheme, path = case
    trail = unmarked_trail(scheme, path)
    assert trail == list(_symbol_recursion(encode(scheme, path)))
    for m, hv in enumerate(trail):
        assert unmarked_counts(scheme, path, m) == hv


@given(deep_good_paths())
def test_transport_of_deep_good_paths_is_invertible(case):
    src, path, dst = case
    assert is_good(src, path)[0]
    image = transport(src, dst, path)
    assert image.start == dst.base and image.end() == path.end()
    assert is_good(dst, image)[0]
    assert transport(dst, src, image) == path


def _reference_decode(scheme, code):
    # decode as it was before it inverted encode's arithmetic: an unmarked
    # symbol's edge is found by scanning its bundle from edge 1.  Kept as
    # an oracle, so it shares no arithmetic with decode.
    p, q = scheme.base
    x, y = scheme.base
    consumed = 0
    steps = []
    for pos, (kind, index) in enumerate(code.symbols, start=1):
        if kind == "s":
            a = index
            if not 1 <= a <= p + q + 2:
                raise DecodeError(f"symbol {pos}: no label s_{a} at a level-"
                                  f"{p + q} base")
            if consumed >> (a - 1) & 1:
                raise DecodeError(f"symbol {pos}: label s_{a} already consumed")
            consumed |= 1 << (a - 1)
            step = Step("H", a) if a <= q + 1 else Step("V", a - q - 1)
        elif kind in ("h", "v"):
            direction = "H" if kind == "h" else "V"
            first, labeled = scheme.bundles[direction]
            size = y + 1 if direction == "H" else x + 1
            seen = 0
            for idx in range(1, size + 1):
                if idx > labeled or consumed >> (first + idx - 1) & 1:
                    seen += 1
                    if seen == index:
                        break
            else:
                raise DecodeError(
                    f"symbol {pos}: only {seen} unmarked "
                    f"{'horizontal' if direction == 'H' else 'vertical'} "
                    f"edges at {(x, y)}, need position {index}")
            step = Step(direction, idx)
        else:
            raise DecodeError(f"symbol {pos}: unknown kind {kind!r}")
        steps.append(step)
        if step.direction == "H":
            x += 1
        else:
            y += 1
    return EulerPath(scheme.base, tuple(steps))


def _outcome(fn, scheme, code):
    try:
        return fn(scheme, code)
    except DecodeError as exc:
        return f"DecodeError: {exc}"


@st.composite
def decode_cases(draw):
    """A scheme with p, q <= 4 and a code at its level: either random
    symbols (repeated or out-of-range labels, positions from -1, an
    unknown kind), or the encoding of a path from another base of the
    level, most of which decode."""
    p, q = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    if draw(st.booleans()):
        symbols = draw(st.lists(st.builds(EncodingSymbol, st.sampled_from("shvx"),
                                          st.integers(-1, 8)), max_size=10))
        return _scheme(p, q), EncodingSequence(p + q, tuple(symbols))
    other, path = draw(based_paths(max_steps=10, level=p + q))
    return _scheme(p, q), encode(other, path)


@given(decode_cases())
def test_decode_matches_the_bundle_scan(case):
    scheme, code = case
    assert _outcome(decode, scheme, code) == _outcome(_reference_decode, scheme, code)


def test_decode_at_a_large_base_does_not_scan_bundles():
    # Each v1 after s1 is the first edge past 10**6 + 1 labeled ones; the
    # bundle scan took about 2.5 s for this code.  h2 after s1,s2,s3 is
    # the second consumed edge of a bundle with 10**6 + 1 labeled ones.
    start = time.perf_counter()
    path = decode(LabelScheme((10**6, 0)), parse_code("n=1000000;s1" + ",v1" * 20))
    other = decode(LabelScheme((0, 10**6)), parse_code("n=1000000;s1,s2,s3,h2"))
    elapsed = time.perf_counter() - start
    assert path == _path((10**6, 0), [("H", 1)] + [("V", 10**6 + 2)] * 20)
    assert other == _path((0, 10**6), [("H", 1), ("H", 2), ("H", 3), ("H", 2)])
    assert elapsed < 0.5


def _reference_validate(path):
    # validate as it was before its loop branched once per step: the
    # bundle size is looked up first, then each check raises in turn.  Kept
    # as an oracle for the step number and text of every error.
    x, y = path.start
    for m, (direction, idx) in enumerate(path.steps, start=1):
        if direction == "H":
            size = y + 1
        elif direction == "V":
            size = x + 1
        else:
            raise PathValidationError(
                f"step {m}: unknown direction {direction!r}")
        if not isinstance(idx, int):
            raise PathValidationError(
                f"step {m}: edge index {idx!r} is not an integer")
        if not 1 <= idx <= size:
            raise PathValidationError(
                f"step {m}: edge index {idx} outside bundle of "
                f"size {size} at vertex {(x, y)}")
        if direction == "H":
            x += 1
        else:
            y += 1
    return Vertex(x, y)


def _error(fn, *args):
    try:
        fn(*args)
    except (PathValidationError, ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def one_bad_step(draw):
    """A scheme and a path from its base with one step put in at a random
    position: an unknown direction, a float or str index, index 0 or the
    bundle size plus one, or a bool index (True is edge 1, False is 0).
    The steps around it are valid and may have bool indices too."""
    scheme, path = draw(based_paths(max_steps=12))
    steps = [Step(d, True) if k == 1 and draw(st.booleans()) else Step(d, k)
             for d, k in path.steps]
    at = draw(st.integers(0, len(steps)))
    x, y = scheme.base
    for d, _ in steps[:at]:
        x, y = (x + 1, y) if d == "H" else (x, y + 1)
    direction = draw(st.sampled_from("HV"))
    size = y + 1 if direction == "H" else x + 1
    bad = draw(st.sampled_from([
        Step(draw(st.sampled_from(["X", "h", "", None])), 1),
        Step(direction, float(draw(st.integers(1, size)))),
        Step(direction, draw(st.floats(0.5, size + 0.5))),
        Step(direction, str(draw(st.integers(1, size)))),
        Step(direction, 0),
        Step(direction, size + 1),
        Step(direction, True),
        Step(direction, False),
    ]))
    # A step put in only grows the bundles after it, so they stay valid.
    return scheme, EulerPath(path.start, tuple(steps[:at] + [bad] + steps[at:]))


@given(one_bad_step(), st.data())
def test_every_public_call_raises_the_reference_validation_error(case, data):
    scheme, path = case
    expected = _error(_reference_validate, path)
    m = data.draw(st.integers(0, len(path.steps)))
    assert _error(validate, path) == expected
    assert _error(encode, scheme, path) == expected
    assert _error(is_good, scheme, path) == expected
    assert _error(unmarked_counts, scheme, path, m) == expected
    assert _error(unmarked_trail, scheme, path) == expected
    assert _error(transport, scheme, scheme, path) == expected
    if expected is None:
        assert validate(path) == _reference_validate(path)
        assert transport(scheme, scheme, path) == path
