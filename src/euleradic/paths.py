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
from typing import Iterable, Iterator, NamedTuple

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
        x, y = self.start
        dx = sum(1 for s in self.steps if s.direction == HORIZONTAL)
        return Vertex(x + dx, y + len(self.steps) - dx)


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
    x, y = _as_vertex(path.start)
    for m, (direction, idx) in enumerate(path.steps, start=1):
        if direction == HORIZONTAL:
            size = y + 1
        elif direction == VERTICAL:
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
        if direction == HORIZONTAL:
            x += 1
        else:
            y += 1
    return Vertex(x, y)


def _walk_all(base: Vertex, off) -> Iterator[EulerPath]:
    (p, q), (i, j) = base, off
    total = i + j
    if total == 0:
        yield EulerPath(base, ())
        return
    # Enumeration order at a vertex: all horizontal edges by ascending
    # index, then all vertical edges by ascending index.  The walk is at
    # (p + a, q + b); options[a][b] lists the steps it may take there.
    hs = [Step(HORIZONTAL, k) for k in range(1, q + j + 2)] if i else []
    vs = [Step(VERTICAL, k) for k in range(1, p + i + 2)] if j else []
    options = [[(hs[:q + b + 1] if a < i else []) + (vs[:p + a + 1] if b < j else [])
                for b in range(j + 1)] for a in range(i + 1)]
    steps: list[Step] = [None] * total
    a = b = 0
    last = total - 1
    stack = [iter(options[0][0])]
    while stack:
        depth = len(stack) - 1
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if depth:
                if steps[depth - 1].direction == HORIZONTAL:
                    a -= 1
                else:
                    b -= 1
            continue
        steps[depth] = step
        if depth == last:
            yield EulerPath(base, tuple(steps))
        else:
            if step.direction == HORIZONTAL:
                a += 1
            else:
                b += 1
            stack.append(iter(options[a][b]))


def _enum_args(base, off, max_enum: int) -> tuple[Vertex, Offset]:
    # The validated base and offset of an exhaustive walk, once its exact
    # path count fits the budget.
    base, off = _as_vertex(base), _as_offset(off)
    expected = _count(*base, *off)
    if expected > max_enum:
        # The bit length, not the digits: a count may be past str's limit.
        raise BudgetError(f"the {expected.bit_length()}-bit count of paths from "
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


# ASCII digits without leading zeros: numbers only as format_path writes them.
_PATH_RE = re.compile(r"\((0|[1-9][0-9]*),(0|[1-9][0-9]*)\):(.*)", re.DOTALL)
_STEP_RE = re.compile(r"([HV])([1-9][0-9]*)")


def format_path(path: EulerPath) -> str:
    """Serialize as '(x,y):H1,V2,...' (empty step list leaves nothing
    after the colon)."""
    x, y = path.start
    return f"({x},{y}):" + ",".join([f"{d}{k}" for d, k in path.steps])


class _StepText(dict):
    # Step -> its text in format_path, made when a step is first looked up.

    def __missing__(self, step):
        text = self[step] = f"{step[0]}{step[1]}"
        return text


def _format_paths(paths: Iterable[EulerPath]) -> Iterator[str]:
    # format_path of each path, with the text of each distinct step made
    # once for the whole run.  Equal steps share one text, so the steps must
    # print alike when equal, as steps with plain int indices do.
    text = _StepText().__getitem__
    for path in paths:
        x, y = path.start
        yield f"({x},{y}):" + ",".join(map(text, path.steps))


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
