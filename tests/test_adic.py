"""Successor dynamics on root paths and symmetric-measure bookkeeping."""

import pytest
from hypothesis import given, strategies as st

from fractions import Fraction
from functools import cmp_to_key
from math import factorial

from test_shared_tables import _successor, module_sizes

from euleradic import (
    BudgetError,
    EulerPath,
    IncomingEdge,
    MaximalPathError,
    ORIGIN,
    Step,
    Vertex,
    compare,
    cylinder_frequency,
    cylinder_measure,
    dim_between,
    enumerate_paths,
    incoming_order,
    maximal_path,
    minimal_path,
    orbit,
    parse_path,
    successor,
)


def _extreme_by_incoming_order(v, take_last):
    # The first-edge (or last-edge) walk down from v through incoming_order.
    cur = Vertex(*v)
    steps = []
    while cur != ORIGIN:
        edges = incoming_order(cur)
        edge = edges[-1] if take_last else edges[0]
        direction = "H" if edge.parent.x < cur.x else "V"
        steps.append(Step(direction, edge.edge_index))
        cur = edge.parent
    return EulerPath(ORIGIN, tuple(reversed(steps)))


def successor_by_incoming_order(x):
    """List-based successor: at the lowest level whose edge is not the last
    in incoming_order, take the next edge and put the first-edge walk to
    its parent below it."""
    verts = [ORIGIN]
    for step in x.steps:
        v = verts[-1]
        verts.append(Vertex(v.x + 1, v.y) if step.direction == "H"
                     else Vertex(v.x, v.y + 1))
    for m, step in enumerate(x.steps):
        child = verts[m + 1]
        edges = incoming_order(child)
        parent = verts[m]
        rank = edges.index(IncomingEdge(parent, step.edge_index))
        if rank + 1 < len(edges):
            edge = edges[rank + 1]
            direction = "H" if edge.parent.x < child.x else "V"
            head = _extreme_by_incoming_order(edge.parent, take_last=False)
            return EulerPath(ORIGIN, head.steps + (Step(direction, edge.edge_index),)
                             + x.steps[m + 1:])
    raise MaximalPathError(f"path to {tuple(verts[-1])} is maximal")


def _pairs(path):
    # The same path with every step a plain (direction, edge index) pair.
    return EulerPath(path.start, tuple(tuple(step) for step in path.steps))


@st.composite
def root_paths(draw, max_steps=40):
    # Valid root paths: each drawn (direction, r) takes edge r mod the
    # bundle size at the running vertex.
    x = y = 0
    steps = []
    for horizontal, r in draw(st.lists(st.tuples(st.booleans(), st.integers(0, 99)),
                                       max_size=max_steps)):
        if horizontal:
            steps.append(Step("H", r % (y + 1) + 1))
            x += 1
        else:
            steps.append(Step("V", r % (x + 1) + 1))
            y += 1
    return EulerPath(ORIGIN, tuple(steps))


def test_incoming_order_examples():
    assert incoming_order((1, 1)) == [
        IncomingEdge(Vertex(0, 1), 1),
        IncomingEdge(Vertex(0, 1), 2),
        IncomingEdge(Vertex(1, 0), 1),
        IncomingEdge(Vertex(1, 0), 2),
    ]
    assert incoming_order((1, 0)) == [IncomingEdge(Vertex(0, 0), 1)]
    assert incoming_order((0, 3)) == [IncomingEdge(Vertex(0, 2), 1)]
    with pytest.raises(ValueError):
        incoming_order((0, 0))


def test_compare_total_order_at_1_1():
    a = parse_path("(0,0):V1,H1")
    b = parse_path("(0,0):V1,H2")
    c = parse_path("(0,0):H1,V1")
    d = parse_path("(0,0):H1,V2")
    order = [a, b, c, d]
    for m, x in enumerate(order):
        assert compare(x, x) == compare(x, _pairs(x)) == 0
        as_lists = EulerPath(x.start, tuple(map(list, x.steps)))
        assert compare(x, as_lists) == compare(as_lists, x) == 0
        for y in order[m + 1:]:
            assert compare(x, y) == compare(_pairs(x), _pairs(y)) == -1
            assert compare(y, x) == compare(_pairs(y), x) == 1


def test_compare_requires_common_end():
    with pytest.raises(ValueError):
        compare(parse_path("(0,0):H1"), parse_path("(0,0):V1"))


def test_compare_is_antisymmetric_at_2_2():
    paths = list(enumerate_paths(ORIGIN, (2, 2)))
    for x in paths:
        for y in paths:
            assert compare(x, y) == -compare(y, x)
            assert (compare(x, y) == 0) == (x == y)


def test_extreme_paths():
    assert minimal_path((1, 1)) == parse_path("(0,0):V1,H1")
    assert maximal_path((1, 1)) == parse_path("(0,0):H1,V2")
    assert minimal_path((3, 0)) == parse_path("(0,0):H1,H1,H1")
    assert maximal_path((3, 0)) == parse_path("(0,0):H1,H1,H1")
    assert minimal_path(ORIGIN) == parse_path("(0,0):")


def test_successor_steps_through_the_order():
    assert successor(minimal_path((1, 1))) == parse_path("(0,0):V1,H2")
    with pytest.raises(MaximalPathError):
        successor(maximal_path((1, 1)))
    seen = {minimal_path((2, 1))}
    x = minimal_path((2, 1))
    while x != maximal_path((2, 1)):
        x = successor(x)
        seen.add(x)
    assert len(seen) == 11


def test_extreme_paths_are_the_incoming_order_walks():
    for n in range(9):
        for x in range(n + 1):
            v = (x, n - x)
            assert minimal_path(v) == _extreme_by_incoming_order(v, take_last=False)
            assert maximal_path(v) == _extreme_by_incoming_order(v, take_last=True)


@given(root_paths())
def test_successor_matches_the_list_based_oracle(x):
    assert _pairs(x).end() == x.end()
    if x == maximal_path(x.end()):
        with pytest.raises(MaximalPathError):
            successor(x)
        with pytest.raises(MaximalPathError):
            successor(_pairs(x))
        with pytest.raises(MaximalPathError):
            successor_by_incoming_order(x)
    else:
        y = successor(x)
        assert y == successor_by_incoming_order(x) == successor(_pairs(x))
        assert compare(x, y) == compare(_pairs(x), _pairs(y)) == -1


def test_successor_of_the_root_path_is_maximal():
    with pytest.raises(MaximalPathError):
        successor(parse_path("(0,0):"))


def test_successor_of_a_long_path_grows_no_step_table():
    # The successor of V1 H1^100000 changes only the edge entering (1, 1).
    before = module_sizes()
    x = parse_path("(0,0):V1," + ",".join(["H1"] * 100000))
    assert successor(x) == parse_path("(0,0):V1,H2," + ",".join(["H1"] * 99999))
    assert module_sizes() == before


def test_orbit_advances_by_successor_and_validates_nothing(monkeypatch):
    import euleradic.adic as adic

    calls = {"successor": 0, "validate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(adic, "successor", counted("successor", adic.successor))
    monkeypatch.setattr(adic, "validate", counted("validate", adic.validate))
    paths = list(orbit((2, 3)))
    # One successor call per path; the last finds the maximal path.
    assert len(paths) == calls["successor"] == 302
    assert calls["validate"] == 0


def test_interleaved_orbits_and_successor_calls_keep_the_order():
    vertices = [(3, 3), (2, 4)]
    expected = {v: list(orbit(v)) for v in vertices}
    iterators = {v: orbit(v) for v in vertices}
    got = {v: [] for v in vertices}
    for _ in range(max(map(len, expected.values()))):
        for v in vertices:
            path = next(iterators[v], None)
            if path is None:
                continue
            got[v].append(path)
            # A successor call of the caller's own, on a path the orbit
            # has just built, must not move the orbit on.
            k = len(got[v])
            if k < len(expected[v]):
                assert successor(path) == expected[v][k]
    assert got == expected


def test_an_orbit_advanced_inside_another_orbit_step_repeats_no_path(monkeypatch):
    # Orbit (3, 2) takes a step while orbit (2, 3) is inside its first
    # successor call; each orbit must still yield its own order, once.
    import euleradic.adic as adic

    expected = {v: list(orbit(v)) for v in [(2, 3), (3, 2)]}
    other = orbit((3, 2))
    got_other = [next(other)]
    real_successor = adic.successor
    pending = [True]

    def successor_stepping_the_other_orbit(*args, **kwargs):
        if pending:
            pending.clear()     # the other orbit's call comes back here
            got_other.append(next(other))
        return real_successor(*args, **kwargs)

    monkeypatch.setattr(adic, "successor", successor_stepping_the_other_orbit)
    got = list(orbit((2, 3)))
    got_other += other
    assert not pending
    assert got == expected[(2, 3)]
    assert got_other == expected[(3, 2)]


@pytest.mark.parametrize("steps", [
    (("V", 1), ("H", 1)),
    (["V", 1], ["H", 1]),
    [("V", True), ("H", True)],
], ids=["pairs", "lists", "bools"])
def test_successor_of_plain_steps_returns_only_steps(steps):
    # Every step of the result is a Step with an int index, the levels the
    # odometer does not raise included.
    y = successor(EulerPath(ORIGIN, steps))
    assert y == parse_path("(0,0):V1,H2")
    assert [(step.direction, type(step.edge_index)) for step in y.steps] \
        == [("V", int), ("H", int)]
    assert all(type(step) is Step for step in y.steps)


def test_successor_steps_equal_fresh_ones():
    for path in [*orbit((2, 3)), maximal_path((3, 2))]:
        fresh = EulerPath(ORIGIN, tuple(Step(*s) for s in path.steps))
        assert path == fresh and hash(path) == hash(fresh)
        assert all(type(step) is Step for step in path.steps)


def test_orbit_exact_at_1_1():
    assert list(orbit((1, 1))) == [
        parse_path("(0,0):V1,H1"),
        parse_path("(0,0):V1,H2"),
        parse_path("(0,0):H1,V1"),
        parse_path("(0,0):H1,V2"),
    ]


def test_orbits_up_to_level_four():
    for n in range(5):
        for x in range(n + 1):
            v = (x, n - x)
            paths = list(orbit(v))
            assert len(paths) == dim_between(ORIGIN, v)
            assert all(compare(a, b) == -1 for a, b in zip(paths, paths[1:]))
            assert set(paths) == set(enumerate_paths(ORIGIN, v))


def test_orbit_is_the_compare_order_through_level_seven():
    for n in range(8):
        for x in range(n + 1):
            v = (x, n - x)
            expected = sorted(enumerate_paths(ORIGIN, v), key=cmp_to_key(compare))
            assert list(orbit(v)) == expected


def test_orbit_equals_a_chain_of_independent_successor_calls():
    # Each public successor call loads its own odometer, so a reset row that
    # one orbit step altered in place would make the two chains differ.
    for n in range(8):
        for x in range(n + 1):
            v = (x, n - x)
            chain = [minimal_path(v)]
            while (nxt := _successor(chain[-1])) is not None:
                chain.append(nxt)
            assert list(orbit(v)) == chain


def test_orbit_on_an_axis_is_one_path():
    for v in [(3000, 0), (0, 3000)]:
        assert list(orbit(v)) == [minimal_path(v)]


def test_orbit_budget():
    with pytest.raises(BudgetError):
        list(orbit((6, 6), max_enum=10))


def test_cylinder_measure():
    assert cylinder_measure(0) == 1
    assert cylinder_measure(1) == Fraction(1, 2)
    assert cylinder_measure(4) == Fraction(1, 120)
    with pytest.raises(ValueError):
        cylinder_measure(-1)


def test_measure_normalization():
    for n in range(8):
        total = sum(dim_between(ORIGIN, (x, n - x)) for x in range(n + 1))
        assert total * cylinder_measure(n) == 1
        assert total == factorial(n + 1)


def test_cylinder_frequency():
    assert cylinder_frequency(parse_path("(0,0):H1"), (1, 1)) == Fraction(1, 2)
    assert cylinder_frequency(parse_path("(0,0):"), (3, 4)) == 1
    # frequency depends on the prefix only through its end vertex
    a = parse_path("(0,0):H1,V1")
    b = parse_path("(0,0):V1,H2")
    for v in [(2, 2), (3, 5), (6, 6)]:
        assert cylinder_frequency(a, v) == cylinder_frequency(b, v)


def test_cylinder_frequency_approaches_measure():
    prefix = parse_path("(0,0):H1,V1")
    gap_near = abs(cylinder_frequency(prefix, (10, 10)) - cylinder_measure(2))
    gap_far = abs(cylinder_frequency(prefix, (40, 40)) - cylinder_measure(2))
    assert gap_far < gap_near < Fraction(1, 10)
