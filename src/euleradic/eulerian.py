"""Exact counts of paths in the Euler graph.

The Euler graph is the infinite graded multigraph on vertices (x, y) with
x, y >= 0, having y+1 parallel edges from (x, y) to (x+1, y) and x+1
parallel edges from (x, y) to (x, y+1).  The number A_{p,q}(i, j) of paths
from (p, q) to (p+i, q+j) generalizes the classical Eulerian numbers:
from the origin, A_{0,0}(i, j) is the Eulerian number counting
permutations of i+j+1 letters with exactly i descents.

Every closed form is one alternating sum: the dot product of two lists
that _level builds at one level e = i + j, and that _levels steps from
level to level for a table.  All arithmetic is exact integer arithmetic;
A_{p,q}(0, 0) = 1 by the empty-path convention, which every formula gives.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb
from operator import index, mul, sub
from typing import Iterator, NamedTuple

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


def _pair(v, cls, noun: str, part: str):
    # v as a cls of two nonnegative ints; an error names the noun, its parts
    # and what was read.
    try:
        a, b = v
    except ValueError:
        raise ValueError(f"{noun} must be two {part}s, got {v!r}") from None
    a, b = index(a), index(b)
    if a < 0 or b < 0:
        raise ValueError(f"{noun} {part}s must be nonnegative, got {(a, b)!r}")
    return tuple.__new__(cls, (a, b))       # without the Python-level __new__


def _as_vertex(v) -> Vertex:
    if type(v) is Vertex:
        x, y = v
        if type(x) is int and type(y) is int and x >= 0 and y >= 0:
            return v                        # already exact
    return _pair(v, Vertex, "vertex", "coordinate")


def _as_offset(off) -> Offset:
    return _pair(off, Offset, "offset", "component")


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
    return CountTable(base, imax, jmax, list(_fill(*base, imax, jmax)))


def closed_form_table(base, imax: int, jmax: int, *,
                      max_cells: int = DEFAULT_CELL_BUDGET) -> CountTable:
    """Fill a table of A_{p,q}(i, j) by the closed form, one level e = i + j
    at a time as _levels steps them.  Each cell is a dot product over its
    shorter index, as in _count: below the diagonal, of the mirror (q, p)
    terms.  Cell for cell it equals closed_form and recurrence_table.

    >>> closed_form_table((1, 0), 2, 2).cells
    [[1, 2, 4], [1, 7, 33], [1, 18, 171]]
    >>> closed_form_table((1, 0), 2, 1).cells
    [[1, 2], [1, 7], [1, 18]]
    """
    p, q = base = _table_base(base, imax, jmax, max_cells)
    cells = [[0] * (jmax + 1) for _ in range(imax + 1)]
    k = min(imax, jmax)
    for e, (terms, mirror, signed) in zip(range(imax + jmax + 1), _levels(p, q, k)):
        for i in range(max(0, e - jmax), min(e, imax) + 1):
            side, m = (terms, i) if 2 * i <= e else (mirror, e - i)
            cells[i][e - i] = _dot(side[k - m:], signed, p, q, i, e - i)
    return CountTable(base, imax, jmax, cells)


def _fill(p: int, q: int, imax: int, jmax: int) -> Iterator[list[int]]:
    # The rows i = 0..imax of the recurrence, unchecked, each yielded when
    # made; only the row above is kept.  A boundary row reads its missing
    # neighbours as 0.  Base coordinates down to -1 are legal: each horizontal
    # (q = -1) or vertical (p = -1) bundle then has one edge fewer than at 0.
    row = [0] * (jmax + 1)
    for i in range(imax + 1):
        up_row, row, left = row, [], 0
        for j, up in enumerate(up_row):
            left = (j + q + 1) * up + (i + p + 1) * left if i or j else 1
            row.append(left)
        yield row


def _level(p: int, q: int, e: int, k: int) -> tuple[list[int], list[int]]:
    # The terms C(p+q+t+1, t) (p+1+t)^e, t = k down to 0, and the signed row
    # (-1)^m C(N, m), m = 0..k, N = p+q+e+2: at k = i their dot product is the
    # closed form at (i, e-i), A_{p,q}(i, e-i) when p, q >= -1.  Each binomial
    # steps upward, C(r, m) = C(r, m-1) (r-m+1)/m, exact for every integer r;
    # a downward step in t would divide by 0 for some negative q.
    top, rise = p + q + e + 3, p + q + 1          # N + 1, and C(rise + m, m)
    s = rising = 1
    signed, terms = [1], [(p + 1) ** e]
    for m in range(1, k + 1):
        s = s * (m - top) // m
        rising = rising * (rise + m) // m
        signed.append(s)
        terms.append(rising * (p + 1 + m) ** e)
    return terms[::-1], signed


def _levels(p: int, q: int, k: int):
    # _level's lists for (p, q) and the mirror (q, p), with their shared signed
    # row, at levels 0, 1, ..., each from the last: a term gains its base p+1+t
    # or q+1+t, and Pascal's rule takes s_m to s_m - s_{m-1}, exact for any N.
    terms, signed = _level(p, q, 0, k)      # at level 0 both sides' terms
    mirror = terms                          # are C(p+q+t+1, t)
    while True:
        yield terms, mirror, signed
        signed = [1, *map(sub, signed[1:], signed)]
        terms = list(map(mul, terms, range(p + 1 + k, p, -1)))
        mirror = terms if p == q else list(map(mul, mirror, range(q + 1 + k, q, -1)))


def _dot(terms: list[int], signed: list[int], p: int, q: int, i: int, j: int) -> int:
    total = sum(map(mul, terms, signed))
    if total < 0:
        raise ArithmeticError(
            f"alternating sum went negative at base {(p, q)}, offset {(i, j)}")
    return total


def _count(p: int, q: int, i: int, j: int) -> int:
    """A_{p,q}(i, j) for unchecked p, q >= -1 and i, j >= 0, summed over
    the shorter index (the count is invariant under the reflection
    (p, q, i, j) -> (q, p, j, i))."""
    return _dot(*(_level(p, q, i + j, i) if i <= j else _level(q, p, i + j, j)), p, q, i, j)


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
    return _dot(*_level(p, q, i + j, i), p, q, i, j)


def closed_form_sym(base, off) -> int:
    """A_{p,q}(i, j) by the j-indexed symmetric variant of the closed form.

    Equals closed_form everywhere (the count is invariant under the
    reflection (p, q, i, j) -> (q, p, j, i)).
    """
    p, q = _as_vertex(base)
    i, j = _as_offset(off)
    return _dot(*_level(q, p, i + j, j), p, q, i, j)


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
    p, q, i = index(p), index(q), index(i)
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    if i < 1:
        raise ValueError(f"i must be positive, got {i}")
    # The lhs is the kernel at offset (i, 0); it is legitimately negative
    # for some negative q, so it is not checked for sign.
    return sum(map(mul, *_level(p, q, i, i))), (q + 1) ** i
