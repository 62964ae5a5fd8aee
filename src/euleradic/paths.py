"""Concrete Euler-graph paths and their exhaustive enumeration.

A path is a start vertex plus a sequence of steps; each step names a
direction and a 1-based index into the parallel-edge bundle at the vertex
where the step is taken (the horizontal bundle at (x, y) has y+1 edges,
the vertical bundle x+1).  Enumeration is the ground-truth oracle for the
counting formulas: it walks every parallel edge individually, so its cost
is proportional to the number of paths, and it shares no arithmetic with
the closed form or the recurrence.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from .errors import BudgetError, PathValidationError
from .eulerian import Offset, Vertex, _as_offset, _as_vertex, _count

HORIZONTAL = "H"
VERTICAL = "V"

#: Default cap on the number of paths an exhaustive operation may visit.
DEFAULT_ENUM_BUDGET = 10**7


class Step(NamedTuple):
    """One edge traversal: direction 'H' or 'V', edge_index 1-based."""

    direction: str
    edge_index: int


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
        dx = sum(1 for s in self.steps if s.direction == HORIZONTAL)
        return Vertex(self.start.x + dx, self.start.y + len(self.steps) - dx)


def multiplicity(v, direction: str) -> int:
    """Number of parallel edges leaving v in the given direction."""
    x, y = _as_vertex(v)
    if direction == HORIZONTAL:
        return y + 1
    if direction == VERTICAL:
        return x + 1
    raise ValueError(f"direction must be {HORIZONTAL!r} or {VERTICAL!r}, "
                     f"got {direction!r}")


def validate(path: EulerPath) -> Vertex:
    """Walk the path, checking every edge index against the bundle size at
    the running vertex; returns the end vertex.

    Raises PathValidationError naming the first offending step (1-based).
    """
    v = _as_vertex(path.start)
    for m, step in enumerate(path.steps, start=1):
        if step.direction not in (HORIZONTAL, VERTICAL):
            raise PathValidationError(
                f"step {m}: unknown direction {step.direction!r}")
        size = multiplicity(v, step.direction)
        if not 1 <= step.edge_index <= size:
            raise PathValidationError(
                f"step {m}: edge index {step.edge_index} outside bundle of "
                f"size {size} at vertex {tuple(v)}")
        if step.direction == HORIZONTAL:
            v = Vertex(v.x + 1, v.y)
        else:
            v = Vertex(v.x, v.y + 1)
    return v


def _options(v: Vertex, di: int, dj: int) -> Iterator[Step]:
    # Enumeration order at a vertex: all horizontal edges by ascending
    # index, then all vertical edges by ascending index.
    if di:
        for idx in range(1, v.y + 2):
            yield Step(HORIZONTAL, idx)
    if dj:
        for idx in range(1, v.x + 2):
            yield Step(VERTICAL, idx)


def _walk_all(base: Vertex, off) -> Iterator[EulerPath]:
    i, j = off
    total = i + j
    if total == 0:
        yield EulerPath(base, ())
        return
    steps: list[Step] = []
    verts: list[Vertex] = [base]
    stack = [_options(base, i, j)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            verts.pop()
            if steps:
                steps.pop()
            continue
        if len(steps) < len(stack):
            steps.append(step)
        else:
            steps[len(stack) - 1] = step
        v = verts[-1]
        nv = (Vertex(v.x + 1, v.y) if step.direction == HORIZONTAL
              else Vertex(v.x, v.y + 1))
        if len(stack) == total:
            yield EulerPath(base, tuple(steps))
        else:
            verts.append(nv)
            stack.append(_options(nv, i - (nv.x - base.x), j - (nv.y - base.y)))


def _enum_args(base, off, max_enum: int) -> tuple[Vertex, Offset]:
    # The validated base and offset of an exhaustive walk, once its exact
    # path count fits the budget.
    base, off = _as_vertex(base), _as_offset(off)
    expected = _count(*base, *off)
    if expected > max_enum:
        raise BudgetError(f"{expected} paths from {tuple(base)} at offset "
                          f"{tuple(off)} exceed the enumeration budget {max_enum}")
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
    (x, y), (i, j) = _enum_args(base, off, max_enum)
    # One stack entry per edge taken, holding the steps still to take as
    # di * w + dj; the vertex reached is (x + i - di, y + j - dj).  A
    # bundle of k parallel edges is pushed as k separate entries.
    w = j + 1
    n = 0
    stack = [i * w + j]
    pop = stack.pop
    while stack:
        rest = pop()
        if rest:
            di, dj = divmod(rest, w)
            if di:
                stack += [rest - w] * (y + j - dj + 1)
            if dj:
                stack += [rest - 1] * (x + i - di + 1)
        else:
            n += 1
    return n


def path_sort_key(path: EulerPath):
    """Key realizing the enumeration order among equal-length paths."""
    return tuple((0 if s.direction == HORIZONTAL else 1, s.edge_index)
                 for s in path.steps)


_PATH_RE = re.compile(r"\((\d+),(\d+)\):(.*)", re.DOTALL)
_STEP_RE = re.compile(r"([HV])([1-9]\d*)")


def format_path(path: EulerPath) -> str:
    """Serialize as '(x,y):H1,V2,...' (empty step list leaves nothing
    after the colon)."""
    body = ",".join(f"{s.direction}{s.edge_index}" for s in path.steps)
    return f"({path.start.x},{path.start.y}):{body}"


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
