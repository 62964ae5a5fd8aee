"""Exact counts of paths in the Euler graph.

The Euler graph is the infinite graded multigraph on vertices (x, y) with
x, y >= 0, having y+1 parallel edges from (x, y) to (x+1, y) and x+1
parallel edges from (x, y) to (x, y+1).  The number A_{p,q}(i, j) of paths
from (p, q) to (p+i, q+j) generalizes the classical Eulerian numbers:
from the origin, A_{0,0}(i, j) is the Eulerian number counting
permutations of i+j+1 letters with exactly i descents.

Everything here is exact integer arithmetic; there is no floating point
anywhere in this module.  A_{p,q}(0, 0) = 1 by the empty-path convention
(and every formula below already evaluates to 1 there, so no special
casing is needed).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb
from operator import index, mul, sub
from typing import NamedTuple

from .errors import DEFAULT_CELL_BUDGET, BudgetError

#: Largest n for which the permutation oracle will run (n! permutations).
DEFAULT_ORACLE_LIMIT = 10


class Vertex(NamedTuple):
    """A vertex (x, y) of the Euler graph; its level is x + y."""

    x: int
    y: int

    @property
    def level(self) -> int:
        return self.x + self.y


class Offset(NamedTuple):
    """A nonnegative displacement (i, j) between vertices."""

    i: int
    j: int


ORIGIN = Vertex(0, 0)


def _as_vertex(v) -> Vertex:
    try:
        x, y = v
    except ValueError:
        raise ValueError(f"vertex must be two coordinates, got {v!r}") from None
    if type(v) is Vertex and type(x) is int and type(y) is int and x >= 0 and y >= 0:
        return v                            # already exact
    x, y = index(x), index(y)
    if x < 0 or y < 0:
        raise ValueError(f"vertex coordinates must be nonnegative, got {(x, y)!r}")
    return tuple.__new__(Vertex, (x, y))    # without the Python-level __new__


def _as_offset(off) -> Offset:
    try:
        i, j = off
    except ValueError:
        raise ValueError(f"offset must be two components, got {off!r}") from None
    i, j = index(i), index(j)
    if i < 0 or j < 0:
        raise ValueError(f"offset components must be nonnegative, got {(i, j)!r}")
    return Offset(i, j)


class CountTable:
    """Dense grid of exact path counts A_{base}(i, j), 0 <= i <= imax, 0 <= j <= jmax.

    Cells are plain Python ints and are treated as immutable after
    construction; tables are safe to share between readers.
    """

    def __init__(self, base: Vertex, imax: int, jmax: int, cells: list[list[int]]):
        self.base = _as_vertex(base)
        self.imax = imax
        self.jmax = jmax
        self.cells = cells

    def __getitem__(self, off) -> int:
        i, j = off
        if not (0 <= i <= self.imax and 0 <= j <= self.jmax):
            raise IndexError(f"offset {(i, j)} outside table bounds "
                             f"({self.imax}, {self.jmax})")
        return self.cells[i][j]

    def __repr__(self) -> str:
        return (f"CountTable(base={tuple(self.base)}, "
                f"imax={self.imax}, jmax={self.jmax})")


def _table_base(base, imax: int, jmax: int, max_cells: int) -> Vertex:
    # The base of a table over 0..imax x 0..jmax, once its bounds and its
    # cell budget are checked.
    base = _as_vertex(base)
    if imax < 0 or jmax < 0:
        raise ValueError("table bounds must be nonnegative")
    cells_needed = (imax + 1) * (jmax + 1)
    if cells_needed > max_cells:
        raise BudgetError(f"table of {cells_needed} cells exceeds the "
                          f"budget of {max_cells}")
    return base


def recurrence_table(base, imax: int, jmax: int, *,
                     max_cells: int = DEFAULT_CELL_BUDGET) -> CountTable:
    """Fill a table of A_{p,q}(i, j) via the two-term recurrence.

    A(i, j) = (j+q+1) A(i-1, j) + (i+p+1) A(i, j-1), with boundary
    A(i, 0) = (q+1)^i, A(0, j) = (p+1)^j and A(0, 0) = 1.

    >>> recurrence_table((0, 0), 2, 2)[1, 1]
    4
    >>> recurrence_table((1, 0), 1, 1)[1, 1]
    7
    """
    base = _table_base(base, imax, jmax, max_cells)
    return CountTable(base, imax, jmax, _fill(*base, imax, jmax))


def closed_form_table(base, imax: int, jmax: int, *,
                      max_cells: int = DEFAULT_CELL_BUDGET) -> CountTable:
    """Fill a table of A_{p,q}(i, j) by the closed form, summed over the
    shorter index: one kernel run along j per row, or, when imax > jmax,
    one run of the mirror (q, p) along i per column.  Cell for cell it
    equals closed_form and recurrence_table.

    >>> closed_form_table((1, 0), 2, 2).cells
    [[1, 2, 4], [1, 7, 33], [1, 18, 171]]
    >>> closed_form_table((1, 0), 2, 1).cells
    [[1, 2], [1, 7], [1, 18]]
    """
    p, q = base = _table_base(base, imax, jmax, max_cells)
    if imax <= jmax:
        rows = [_alternating_run(p, q, i, 0, jmax + 1) for i in range(imax + 1)]
    else:
        rows = zip(*[_alternating_run(q, p, j, 0, imax + 1) for j in range(jmax + 1)])
    return CountTable(base, imax, jmax, [
        [_nonnegative(a, p, q, i, j) for j, a in enumerate(row)]
        for i, row in enumerate(rows)])


def _fill(p: int, q: int, imax: int, jmax: int) -> list[list[int]]:
    # The recurrence rows, unchecked; the boundary rows are the recurrence
    # with the missing neighbours read as 0.  Base coordinates down to -1
    # are legal: every horizontal (q = -1) or vertical (p = -1) bundle then
    # has one edge fewer than at coordinate 0.
    rows: list[list[int]] = []
    up_row = [0] * (jmax + 1)
    for i in range(imax + 1):
        row: list[int] = []
        left = 0
        for j, up in enumerate(up_row):
            left = (j + q + 1) * up + (i + p + 1) * left if i or j else 1
            row.append(left)
        rows.append(row)
        up_row = row
    return rows


def _alternating_run(p: int, q: int, i: int, j: int, stop: int) -> list[int]:
    # Cells j..stop-1 of row i of the sum over t = 0..i of
    # (-1)^(i-t) C(p+q+t+1, t) C(N, i-t) (p+1+t)^(i+j), N = p+q+i+j+2, with
    # the binomials read as polynomials in their upper argument.  Every
    # closed form below is this sum; with p, q >= -1 it equals A_{p,q}(i, j).
    # The first cell steps both binomials upward in k, by
    # C(m, k) = C(m-1, k-1) m/k and C(N, k) = C(N, k-1) (N-k+1)/k, exact for
    # every integer m and N; stepping C(N, i-t) downward in t would divide
    # by N-i+t+1, which is 0 for some negative q.  Each next cell raises N
    # by 1: Pascal's rule C(N+1, k) = C(N, k) + C(N, k-1) takes
    # s_k = (-1)^k C(N, k) to s_k - s_{k-1} with no division, so it is exact
    # for every integer N, negative ones included, where a step by
    # (N+1)/(N+1-k) could divide by 0.  Each term gains one factor of its
    # base p+1+t.  terms[k] and signed[k] belong to t = i-k.
    top = p + q + i + j + 3             # N + 1
    rise = p + q + 1
    e = i + j
    s = rising = 1
    signed = [1]                        # (-1)^k C(N, k) for k = 0..i
    terms = [(p + 1) ** e]              # C(p+q+t+1, t) (p+1+t)^e for t = 0..i
    for k in range(1, i + 1):
        s = s * (k - top) // k
        rising = rising * (rise + k) // k
        signed.append(s)
        terms.append(rising * (p + 1 + k) ** e)
    terms.reverse()
    run = [sum(map(mul, terms, signed))]
    if stop > j + 1:                    # a one-cell call builds no step range
        bases = range(p + 1 + i, p, -1)
        for _ in range(j + 1, stop):
            signed = [1, *map(sub, signed[1:], signed)]
            terms = list(map(mul, terms, bases))
            run.append(sum(map(mul, terms, signed)))
    return run


def _nonnegative(total: int, p: int, q: int, i: int, j: int) -> int:
    if total < 0:
        raise ArithmeticError(
            f"alternating sum went negative at base {(p, q)}, offset {(i, j)}")
    return total


def _count(p: int, q: int, i: int, j: int) -> int:
    """A_{p,q}(i, j) for unchecked p, q >= -1 and i, j >= 0, summed over
    the shorter index (the count is invariant under the reflection
    (p, q, i, j) -> (q, p, j, i))."""
    total = (_alternating_run(p, q, i, j, j + 1) if i <= j
             else _alternating_run(q, p, j, i, i + 1))[0]
    return _nonnegative(total, p, q, i, j)


def closed_form(base, off) -> int:
    """A_{p,q}(i, j) by the alternating-sum closed form (exact).

    Sum over t = 0..i of
    (-1)^(i-t) C(p+q+t+1, t) C(p+q+i+j+2, i-t) (p+1+t)^(i+j).

    >>> closed_form((1, 0), (1, 1))
    7
    >>> closed_form((0, 0), (2, 1))
    11
    """
    p, q = _as_vertex(base)
    i, j = _as_offset(off)
    return _nonnegative(_alternating_run(p, q, i, j, j + 1)[0], p, q, i, j)


def closed_form_sym(base, off) -> int:
    """A_{p,q}(i, j) by the j-indexed symmetric variant of the closed form.

    Equals closed_form everywhere (the count is invariant under the
    reflection (p, q, i, j) -> (q, p, j, i)).
    """
    p, q = _as_vertex(base)
    i, j = _as_offset(off)
    return _nonnegative(_alternating_run(q, p, j, i, i + 1)[0], p, q, i, j)


def comtet_a00(off) -> int:
    """A_{0,0}(i, j) by the classical Eulerian-number sum.

    Sum over t = 0..i of (-1)^(i-t) C(i+j+2, i-t) (1+t)^(i+j+1); the
    textbook closed form for the Eulerian number with i descents on
    i+j+1 letters, summed here without the path-count kernel.

    >>> comtet_a00((1, 1))
    4
    >>> comtet_a00((2, 2))
    66
    """
    i, j = _as_offset(off)
    return sum((-1) ** (i - t) * comb(i + j + 2, i - t) * (t + 1) ** (i + j + 1)
               for t in range(i + 1))


def dim_between(src, dst) -> int:
    """Number of paths from vertex src to vertex dst; 0 when dst is not
    componentwise >= src (no paths exist)."""
    sx, sy = _as_vertex(src)
    dx, dy = _as_vertex(dst)
    if dx < sx or dy < sy:
        return 0
    return _count(sx, sy, dx - sx, dy - sy)


@lru_cache(maxsize=None)
def _descent_histogram(n: int) -> tuple[int, ...]:
    # One exhaustive sweep of all n! permutations per n, cached.
    counts = [0] * n
    for perm in permutations(range(n)):
        d = sum(1 for a, b in zip(perm, perm[1:]) if a > b)
        counts[d] += 1
    return tuple(counts)


def classical_eulerian_oracle(n: int, k: int) -> int:
    """Count permutations of {1..n} with exactly k descents, by exhaustive
    generation.  Independent cross-check oracle; deliberately knows nothing
    about the path-counting formulas.

    >>> classical_eulerian_oracle(4, 2)
    11
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= k < n:
        raise ValueError(f"descent count k must satisfy 0 <= k < n, got k={k}")
    if n > DEFAULT_ORACLE_LIMIT:
        raise BudgetError(f"exhaustive generation of {n}! permutations exceeds "
                          f"the limit n <= {DEFAULT_ORACLE_LIMIT}")
    return _descent_histogram(n)[k]


def coefficient_identity_check(p: int, q: int, i: int) -> tuple[int, int]:
    """Evaluate both sides of the coefficient identity

        sum_t (-1)^(i-t) C(p+q+t+1, t) C(p+q+i+2, i-t) (p+1+t)^i = (q+1)^i

    exactly, with the binomials read as polynomials in q so that any
    integer q (negative included) is a legal test point.  Returns
    (lhs, rhs); callers assert equality.
    """
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    if i < 1:
        raise ValueError(f"i must be positive, got {i}")
    # The lhs is the kernel at offset (i, 0); it is legitimately negative
    # for some negative q, so it is not checked for sign.
    return _alternating_run(p, q, i, 0, 1)[0], (q + 1) ** i
