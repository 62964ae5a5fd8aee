"""The adic (successor) transformation on root paths of the Euler graph.

The edges entering each vertex carry a fixed total order: the bundle from
the horizontal parent (x-1, y) in ascending edge index, then the bundle
from the vertical parent (x, y-1) in ascending edge index.  Paths from
the root to a common vertex are compared at the last level where their
edges differ.  That order is a mixed-radix odometer: the digit at each
level is the rank of the path's edge among the edges entering the vertex
it reaches, and the top level is the most significant digit.  The
successor map advances the odometer: it increments the lowest digit that
can still grow and resets everything below it to the minimal path to the
new parent, in place and in amortized O(1) time per path.  `orbit`
starts the odometer at the minimal path and passes it as an argument to
`successor` with each path, so no path that `orbit` yields is parsed or
validated, no call keeps state between calls and each path costs one
successor call.  Each odometer owns one table of steps per direction,
keyed by edge index, which a raised digit looks its step up in, and one
table of the rows of the minimal path to each parent, which a reset
copies in; nothing it builds outlives the odometer and the paths that
hold its steps.  The symmetric measure assigns exactly 1/(n+1)! to
every cylinder of length n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import accumulate
from math import factorial
from typing import Iterator, NamedTuple

from .errors import DEFAULT_ENUM_BUDGET, MaximalPathError
from .eulerian import ORIGIN, Vertex, _as_vertex
from .paths import (EulerPath, HORIZONTAL, Step, VERTICAL, _Table, _enum_args,
                    validate)
from .ratios import normalized_dim_ratio


class IncomingEdge(NamedTuple):
    """An edge entering some vertex, named by its parent and its 1-based
    index within the parent-to-child bundle."""

    parent: Vertex
    edge_index: int


def incoming_order(v) -> list[IncomingEdge]:
    """All edges entering v in their fixed total order."""
    x, y = _as_vertex(v)
    if (x, y) == (0, 0):
        raise ValueError("the root has no incoming edges")
    edges: list[IncomingEdge] = []
    if x >= 1:
        parent = Vertex(x - 1, y)
        edges += [IncomingEdge(parent, idx) for idx in range(1, parent.y + 2)]
    if y >= 1:
        parent = Vertex(x, y - 1)
        edges += [IncomingEdge(parent, idx) for idx in range(1, parent.x + 2)]
    return edges


def _incoming_rank(x: int, y: int, step) -> int:
    # Rank of the edge (described by the step entering (x, y)) within
    # incoming_order((x, y)), without materializing the list.
    direction, idx = step
    if direction == HORIZONTAL:
        return idx - 1
    return (y + 1 if x >= 1 else 0) + idx - 1


def compare(a: EulerPath, b: EulerPath) -> int:
    """-1, 0 or 1 ordering two root paths with the same end vertex, by the
    rank of their edges at the last level where they differ."""
    end_a, end_b = validate(a, ORIGIN), validate(b, ORIGIN)
    if end_a != end_b:
        raise ValueError(f"paths end at different vertices "
                         f"{tuple(end_a)} and {tuple(end_b)}")
    # Scan down from the top level.  Above the last differing step the
    # suffixes coincide, so both paths enter the same vertex there: the
    # end vertex minus the shared suffix.  Ranks there decide; steps that
    # differ only in their container, a list against a tuple, share a rank.
    x, y = end_a
    for sa, sb in zip(reversed(a.steps), reversed(b.steps)):
        if sa != sb:
            ra, rb = _incoming_rank(x, y, sa), _incoming_rank(x, y, sb)
            if ra != rb:
                return -1 if ra < rb else 1
        if sa[0] == HORIZONTAL:
            x -= 1
        else:
            y -= 1
    return 0


_H1, _V1 = Step(HORIZONTAL, 1), Step(VERTICAL, 1)


def _minimal_steps(x: int, y: int) -> list[Step]:
    return [_V1] * y + [_H1] * x


def minimal_path(v) -> EulerPath:
    """The least root path to v: first incoming edge at every level, which
    is V1 up the y axis and then H1 across."""
    return EulerPath(ORIGIN, tuple(_minimal_steps(*_as_vertex(v))))


def maximal_path(v) -> EulerPath:
    """The greatest root path to v: last incoming edge at every level, which
    is H1 along the x axis and then the last vertical edge V(x+1) up."""
    x, y = _as_vertex(v)
    last_v = (Step(VERTICAL, x + 1),) if y else ()
    return EulerPath(ORIGIN, (_H1,) * x + last_v * y)


class _Odometer:
    # The root paths to one vertex as a mixed-radix counter.  Digit k is
    # the incoming rank of step k at the vertex it enters, the top level
    # is the most significant digit, and the counter's order is compare's.
    # xs[k] is the x coordinate after step k.  Levels below `lo` enter
    # vertices on an axis, which have one incoming edge; every level from
    # lo up enters a vertex (x, y) with x, y >= 1 and (y+1) + (x+1)
    # incoming edges.  `tables` maps an edge index, a plain int, to its H
    # step and to its V step; the caller's steps and every raised digit
    # come from them, so a loaded path holds only Steps with int indices.
    # `resets` maps a parent (px, py) to its minimal path's steps, xs and ranks.

    __slots__ = ("steps", "xs", "ranks", "lo", "tables", "resets")

    def __init__(self, steps):
        # `steps` must be a valid root path; nothing is checked here.
        self.tables = h, v = (_Table(partial(Step, HORIZONTAL)),
                              _Table(partial(Step, VERTICAL)))
        self.resets = _Table(lambda p: (_minimal_steps(*p), [0] * p[1] + [*range(1, p[0] + 1)],
                                        [0] * sum(p)))
        self.steps = [(h if d == HORIZONTAL else v)[int(idx)] for d, idx in steps]
        self.xs = list(accumulate(int(d == HORIZONTAL) for d, _ in self.steps))
        self.ranks = [_incoming_rank(x, k + 1 - x, s)
                      for k, (x, s) in enumerate(zip(self.xs, self.steps))]
        self.lo = next((k for k, x in enumerate(self.xs) if 0 < x <= k), len(self.xs))


def successor(x: EulerPath, *, _odometer: _Odometer | None = None) -> EulerPath:
    """The smallest root path to the same end vertex that is strictly
    greater than x; raises MaximalPathError when x is maximal.  x is checked
    and loaded first, in time linear in its length.  `_odometer` belongs to
    orbit: it is the odometer behind x, advanced in place instead of checking
    and loading x, so walking an orbit takes amortized O(1) time per path;
    nothing about it is checked.  Every step of the result is a Step with an
    int index, whatever pairs x was given with."""
    odometer = _odometer
    if odometer is None:
        validate(x, ORIGIN)
        odometer = _Odometer(x.steps)
    steps, xs, ranks = odometer.steps, odometer.xs, odometer.ranks
    m, n = odometer.lo, len(steps)
    # Level m enters a vertex of level m + 1, which from lo up has m + 3
    # incoming edges; rank m + 2 is the last.
    while m < n and ranks[m] == m + 2:
        m += 1
    if m == n:
        x_end = xs[-1] if xs else 0
        raise MaximalPathError(f"path to {(x_end, n - x_end)} is maximal")
    cx = xs[m]
    cy = m + 1 - cx
    rank = ranks[m] = ranks[m] + 1
    h, v = odometer.tables
    # The horizontal bundle from (cx-1, cy) holds ranks 0..cy, the vertical
    # bundle from (cx, cy-1) the ranks after it.
    if rank <= cy:
        steps[m] = h[rank + 1]
        px, py = cx - 1, cy
    else:
        steps[m] = v[rank - cy]
        px, py = cx, cy - 1
    # Levels below m become the minimal path to the new parent, V1 * py
    # then H1 * px.  A parent on an axis has one root path, already in
    # place unless the parent changed (rank cy to cy + 1).
    if px and py or rank == cy + 1:
        steps[:m], xs[:m], ranks[:m] = odometer.resets[px, py]
    odometer.lo = py if px and py else m
    return tuple.__new__(EulerPath, (ORIGIN, tuple(steps)))


def orbit(v, *, max_enum: int = DEFAULT_ENUM_BUDGET) -> Iterator[EulerPath]:
    """All root paths to v in successor order, from minimal to maximal,
    once the exact path count fits the budget.  Each path costs one
    successor call on one odometer, and none of them is checked."""
    _, v = _enum_args(ORIGIN, v, max_enum)

    def run() -> Iterator[EulerPath]:
        odometer = _Odometer(_minimal_steps(*v))
        cur = tuple.__new__(EulerPath, (ORIGIN, tuple(odometer.steps)))
        while True:
            yield cur
            try:
                cur = successor(cur, _odometer=odometer)
            except MaximalPathError:
                return

    return run()


def cylinder_measure(n: int) -> Fraction:
    """Symmetric-measure weight of any length-n cylinder: 1/(n+1)!."""
    if n < 0:
        raise ValueError(f"cylinder length must be nonnegative, got {n}")
    return Fraction(1, factorial(n + 1))


def cylinder_frequency(prefix: EulerPath, v) -> Fraction:
    """Exact fraction of root-to-v paths that extend the given root
    prefix: dim(end(prefix), v) / dim(R, v).  Depends on the prefix only
    through its end vertex; zero when v is unreachable from it."""
    return normalized_dim_ratio(validate(prefix, ORIGIN), v)
