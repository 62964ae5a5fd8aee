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
starts the odometer at the minimal path and advances it through
`successor`, handing over the odometer with each path, so no path that
`orbit` yields is parsed or validated.  The odometer builds a fresh step
for each digit it raises, so nothing it builds outlives the paths that
hold it.  The symmetric measure assigns exactly 1/(n+1)! to every
cylinder of length n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial
from typing import Iterator, NamedTuple

from .errors import MaximalPathError
from .eulerian import ORIGIN, Vertex, _as_vertex
from .paths import (DEFAULT_ENUM_BUDGET, EulerPath, HORIZONTAL, Step,
                    VERTICAL, _enum_args, validate)
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
        for idx in range(1, parent.y + 2):
            edges.append(IncomingEdge(parent, idx))
    if y >= 1:
        parent = Vertex(x, y - 1)
        for idx in range(1, parent.x + 2):
            edges.append(IncomingEdge(parent, idx))
    return edges


def _incoming_rank(child: Vertex, step: Step) -> int:
    # Rank of the edge (described by the step entering `child`) within
    # incoming_order(child), without materializing the list.
    if step.direction == HORIZONTAL:
        return step.edge_index - 1
    h_bundle = child.y + 1 if child.x >= 1 else 0
    return h_bundle + step.edge_index - 1


def compare(a: EulerPath, b: EulerPath) -> int:
    """-1, 0 or 1 ordering two root paths with the same end vertex, by the
    rank of their edges at the last level where they differ."""
    end_a, end_b = validate(a, ORIGIN), validate(b, ORIGIN)
    if end_a != end_b:
        raise ValueError(f"paths end at different vertices "
                         f"{tuple(end_a)} and {tuple(end_b)}")
    if a.steps == b.steps:
        return 0
    # Scan down from the top level.  Above the last differing step the
    # suffixes coincide, so both paths enter the same vertex there: the
    # end vertex minus the shared suffix.  Ranks there decide.
    x, y = end_a
    for sa, sb in zip(reversed(a.steps), reversed(b.steps)):
        if sa != sb:
            child = Vertex(x, y)
            return -1 if _incoming_rank(child, sa) < _incoming_rank(child, sb) else 1
        if sa.direction == HORIZONTAL:
            x -= 1
        else:
            y -= 1


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
    # incoming edges.  Advancing builds one fresh step for the level whose
    # digit grows and puts the shared _V1 and _H1 below it, so the steps it
    # holds live only as long as the odometer and the paths built from it.

    __slots__ = ("steps", "xs", "ranks", "lo")

    def __init__(self, steps):
        # `steps` must be a valid root path; nothing is checked here.
        self.steps = list(steps)
        self.xs = list(accumulate(int(s.direction == HORIZONTAL) for s in steps))
        self.ranks = [_incoming_rank(Vertex(x, k + 1 - x), s)
                      for k, (x, s) in enumerate(zip(self.xs, self.steps))]
        self.lo = next((k for k, x in enumerate(self.xs) if 0 < x <= k),
                       len(self.steps))

    def _advance(self) -> bool:
        # Step to the successor in place; False when the path is maximal.
        steps, xs, ranks = self.steps, self.xs, self.ranks
        m = self.lo
        # Level m enters a vertex of level m + 1, which from lo up has
        # m + 3 incoming edges; rank m + 2 is the last.
        while m < len(steps) and ranks[m] == m + 2:
            m += 1
        if m == len(steps):
            return False
        x = xs[m]
        y = m + 1 - x
        rank = ranks[m] = ranks[m] + 1
        # The horizontal bundle from (x-1, y) holds ranks 0..y, the
        # vertical bundle from (x, y-1) the ranks after it.
        if rank <= y:
            steps[m] = tuple.__new__(Step, (HORIZONTAL, rank + 1))
            px, py = x - 1, y
        else:
            steps[m] = tuple.__new__(Step, (VERTICAL, rank - y))
            px, py = x, y - 1
        # Levels below m become the minimal path to the new parent,
        # V1 * py then H1 * px.  A parent on an axis has one root path,
        # already in place unless the parent changed (rank y to y + 1).
        if px and py or rank == y + 1:
            steps[:m] = _minimal_steps(px, py)
            xs[:m] = [0] * py + list(range(1, px + 1))
            ranks[:m] = [0] * m
        self.lo = py if px and py else m
        return True


# A hand-off from `orbit` to `successor`: right before advancing, orbit
# puts the path it has just yielded and the odometer behind it here, and
# successor(x) on that very path (by identity) takes them back out instead
# of checking and reloading x.  The slot is empty again before successor
# returns, so it holds nothing between calls.
_resume: list = [None, None]


def _built(odometer: _Odometer) -> EulerPath:
    # EulerPath(ORIGIN, ...) without the Python-level __new__ of a NamedTuple.
    return tuple.__new__(EulerPath, (ORIGIN, tuple(odometer.steps)))


def successor(x: EulerPath) -> EulerPath:
    """The smallest root path to the same end vertex that is strictly
    greater than x; raises MaximalPathError when x is maximal.  x is
    checked and loaded first, in time linear in its length, except when
    orbit hands over the odometer behind it, so walking an orbit takes
    amortized O(1) time per path."""
    if _resume[0] is x:
        odometer = _resume[1]
        _resume[0] = _resume[1] = None
    else:
        validate(x, ORIGIN)
        odometer = _Odometer(x.steps)
    if not odometer._advance():
        x_end = odometer.xs[-1] if odometer.xs else 0
        end = (x_end, len(odometer.xs) - x_end)
        raise MaximalPathError(f"path to {end} is maximal")
    return _built(odometer)


def orbit(v, *, max_enum: int = DEFAULT_ENUM_BUDGET) -> Iterator[EulerPath]:
    """All root paths to v in successor order, from minimal to maximal.
    The exact path count is checked against the budget first.  The paths
    come from one odometer started at the minimal path and advanced by
    successor, so none of them is parsed or checked."""
    _, v = _enum_args(ORIGIN, v, max_enum)

    def run() -> Iterator[EulerPath]:
        odometer = _Odometer(_minimal_steps(*v))
        cur = _built(odometer)
        while True:
            yield cur
            _resume[0], _resume[1] = cur, odometer
            try:
                cur = successor(cur)
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
