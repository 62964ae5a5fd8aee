"""Concrete Euler-graph paths and their exhaustive enumeration.

A path is a start vertex plus a sequence of steps; each step names a
direction and a 1-based index into the parallel-edge bundle at the vertex
where the step is taken (the horizontal bundle at (x, y) has y+1 edges,
the vertical bundle x+1).  Enumeration is the ground-truth oracle for the
counting formulas: it walks every parallel edge individually, so its cost
is proportional to the number of paths, and it shares no arithmetic with
the closed form or the recurrence.  Every exhaustive walker, here and in
goodpaths, pops the entries of one table built per walk by _rows, keyed
by the steps left, di * w + dj, until code 0; each entry carries the item
its walker asked for (a Step, or a label bit in goodpaths).
`validate(path, start)` is the one check of a path's start.
"""

from __future__ import annotations

import re
from itertools import islice
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .errors import DEFAULT_ENUM_BUDGET, BudgetError, PathValidationError
from .eulerian import Offset, Vertex, _as_offset, _as_vertex, _count

HORIZONTAL = "H"
VERTICAL = "V"


class Step(NamedTuple):
    """One edge traversal: direction 'H' or 'V', edge_index 1-based."""

    direction: str
    edge_index: int


KIND_MARKED = "s"
KIND_H_UNMARKED = "h"
KIND_V_UNMARKED = "v"
KINDS = (KIND_MARKED, KIND_H_UNMARKED, KIND_V_UNMARKED)


class EncodingSymbol(NamedTuple):
    """One symbol of encoding.encode: kind 's' (marked label index), 'h' or
    'v' (1-based position among the unmarked edges of that direction)."""

    kind: str
    index: int


class EulerPath(NamedTuple):
    """A finite path: start vertex plus step sequence.

    Hashable and totally ordered componentwise, which makes the
    lexicographic enumeration order below the natural tuple order
    ('H' < 'V', then ascending edge index).
    """

    start: Vertex
    steps: tuple[Step, ...]

    def end(self) -> Vertex:
        """End vertex by step bookkeeping alone (no validity check)."""
        x, y = self.start
        dx = sum(1 for d, _ in self.steps if d == HORIZONTAL)
        return Vertex(x + dx, y + len(self.steps) - dx)


def validate(path: EulerPath, start=None) -> Vertex:
    """Walk the path, checking every edge index against the bundle size at
    the running vertex; returns the end vertex.

    Raises ValueError naming both vertices if a start is given and the
    path starts elsewhere, then PathValidationError naming the first
    offending step (1-based).  An exact start (a Vertex of nonnegative ints)
    is read as it is, any other normalised.  Each public per-path call
    validates its input exactly once, through this name; bench/test_bench.py pins it.

    >>> validate(parse_path("(1,0):V1,H3"), (0, 1))
    Traceback (most recent call last):
    ValueError: path starts at (1, 0), expected (0, 1)
    """
    x, y = s = path.start if type(path.start) is Vertex else _as_vertex(path.start)
    if not (type(x) is int and type(y) is int and x >= 0 and y >= 0):
        x, y = s = _as_vertex(s)
    if start is not None and start is not path.start and not (
            type(start) is Vertex and start == s
            and type(start[0]) is int and type(start[1]) is int):
        start = _as_vertex(start)
        if s != start:
            raise ValueError(f"path starts at {(x, y)}, expected {tuple(start)}")
    for direction, idx in path.steps:
        if direction == HORIZONTAL:
            if not (isinstance(idx, int) and 1 <= idx <= y + 1):
                break
            x += 1
        elif direction == VERTICAL and isinstance(idx, int) and 1 <= idx <= x + 1:
            y += 1
        else:
            break
    else:
        return tuple.__new__(Vertex, (x, y))
    raise _step_error(path, s, x, y)


def _step_error(path: EulerPath, start: Vertex, x: int, y: int) -> PathValidationError:
    # Error of the first bad step, taken at (x, y); each step from start raised x or y by 1.
    m = x + y - sum(start) + 1
    direction, idx = path.steps[m - 1]
    if direction not in (HORIZONTAL, VERTICAL):
        return PathValidationError(f"step {m}: unknown direction {direction!r}")
    if not isinstance(idx, int):
        return PathValidationError(f"step {m}: edge index {idx!r} is not an integer")
    size = y + 1 if direction == HORIZONTAL else x + 1
    return PathValidationError(f"step {m}: edge index {idx} outside bundle of "
                               f"size {size} at vertex {(x, y)}")


def _entries(child: int, bundle, skip: int) -> list:
    # Stack entries of the edges of bundle[skip:], each the code it leads to, then
    # its item (None for a bundle given as its size), filled without copying a slice.
    if type(bundle) is int:
        return [child, None] * (bundle - skip)
    row = [child, None] * (len(bundle) - skip)
    for k, item in enumerate(islice(bundle, skip, None)):
        row[2 * k + 1] = item
    return row


def _rows(base: Vertex, off, h_item=None, v_item=None) -> tuple[list[list], list[int]]:
    # The table of one exhaustive walk.  Code di * w + dj (w = j + 1) is the
    # vertex (p + i - di, q + j - dj); rows[code] holds one stack entry per
    # edge leaving it within the walk: the code the edge enters, then its
    # item, h_item(k) or v_item(k) for edge index k, or None with no maker.
    # Items are shared, and the entries run V then H by descending index, so
    # popping them takes the edges in enumeration order.  depth[code] is the
    # position of the step entering the vertex.  Each walk pops its start row in place.
    (p, q), (i, j) = base, off
    w = j + 1
    hs = [h_item(k) for k in range(q + j + 1, 0, -1)] if i and h_item else q + j + 1
    vs = [v_item(k) for k in range(p + i + 1, 0, -1)] if j and v_item else p + i + 1
    rows, depth = [], []
    for di in range(i + 1):
        for dj in range(j + 1):
            code = di * w + dj
            row = _entries(code - 1, vs, di) if dj else []
            if di:
                row += _entries(code - w, hs, dj)
            rows.append(row)
            depth.append(i - di + j - dj - 1)
    return rows, depth


def _walk_all(base: Vertex, off) -> Iterator[EulerPath]:
    if not sum(off):
        yield tuple.__new__(EulerPath, (base, ()))
        return
    rows, depth = _rows(base, off, lambda k: Step(HORIZONTAL, k),
                        lambda k: Step(VERTICAL, k))
    steps: list[Step] = [None] * sum(off)
    stack = rows[-1]        # no edge enters the start, so no row is pushed twice
    pop = stack.pop
    while stack:
        step = pop()
        rest = pop()
        steps[depth[rest]] = step
        if rest:
            stack += rows[rest]
        else:
            yield tuple.__new__(EulerPath, (base, tuple(steps)))


def _enum_args(base, off, max_enum: int) -> tuple[Vertex, Offset]:
    # The validated base and offset of an exhaustive walk, once its exact
    # path count fits the budget.  Every bundle has an edge, so C(i+j, i)
    # bounds the count from below; it is checked first, in milliseconds
    # where the exact count takes seconds.
    base, off = _as_vertex(base), _as_offset(off)
    what, n = f"lower bound C({sum(off)}, {off[0]}) on the count", comb(sum(off), off[0])
    if n <= max_enum:
        what, n = "count", _count(*base, *off)
    if n > max_enum:
        # The bit length, not the digits: a count may be past str's limit.
        raise BudgetError(f"the {n.bit_length()}-bit {what} of paths from "
                          f"{tuple(base)} at offset {tuple(off)} exceeds the "
                          f"enumeration budget {max_enum}")
    return base, off


def enumerate_paths(base, off, *,
                    max_enum: int = DEFAULT_ENUM_BUDGET) -> Iterator[EulerPath]:
    """Yield every path from base with the given offset, exactly once, in
    lexicographic step order (horizontal before vertical, ascending edge
    index).  The exact count is computed first and checked against the
    budget before any path is produced."""
    return _walk_all(*_enum_args(base, off, max_enum))


def count_paths_enumeration(base, off, *,
                            max_enum: int = DEFAULT_ENUM_BUDGET) -> int:
    """Count paths by actually walking every one of them (each parallel
    edge taken separately).  Independent oracle for the formulas; budget
    as enumerate_paths."""
    rows, _ = _rows(*_enum_args(base, off, max_enum))      # items unread: None
    n = 0
    stack = [len(rows) - 1, None]   # the start as if entered, so an empty walk counts 1
    pop = stack.pop
    while stack:
        pop()
        rest = pop()
        if rest:
            stack += rows[rest]
        else:
            n += 1
    return n


# ASCII digits without leading zeros: numbers only as format_path writes them.
_PATH_RE = re.compile(r"\((0|[1-9][0-9]*),(0|[1-9][0-9]*)\):(.*)", re.DOTALL)
_STEP_RE = re.compile(r"([HV])([1-9][0-9]*)")


def format_path(path: EulerPath) -> str:
    """Serialize as '(x,y):H1,V2,...' (empty step list leaves nothing
    after the colon)."""
    x, y = path.start
    return f"({x},{y}):" + ",".join([f"{d}{k}" for d, k in path.steps])


class _Table(dict):
    # key -> make(key), made when the key is first looked up, so a table holds
    # only what its owner asked of it and lives exactly as long as the owner.
    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _format_paths(paths: Iterable[EulerPath]) -> Iterator[str]:
    # format_path of each path, with the text of each distinct step made
    # once for the whole run.  Equal steps share one text, so the steps must
    # print alike when equal, as steps with plain int indices do.  The start's
    # text is kept while the start is the same tuple, which cannot change.
    text = _Table(lambda step: f"{step[0]}{step[1]}").__getitem__
    start = head = None
    for path in paths:
        if path.start is not start:
            x, y = path.start
            head = f"({x},{y}):"
            start = path.start if isinstance(path.start, tuple) else None
        yield head + ",".join(map(text, path.steps))


def parse_path(text: str) -> EulerPath:
    """Inverse of format_path; raises ValueError on malformed input."""
    m = _PATH_RE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"malformed path text {text!r}; expected '(x,y):H1,V2,...'")
    start = Vertex(int(m.group(1)), int(m.group(2)))
    body = m.group(3)
    steps: list[Step] = []
    if body:
        for token in body.split(","):
            sm = _STEP_RE.fullmatch(token.strip())
            if not sm:
                raise ValueError(f"malformed step token {token!r} in {text!r}")
            steps.append(Step(sm.group(1), int(sm.group(2))))
    return EulerPath(start, tuple(steps))
