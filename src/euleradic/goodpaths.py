"""Edge labeling relative to a base vertex, and good-path counting.

Relative to a base (p, q), the first q+1 horizontal edges out of every
vertex above the base carry labels s_1..s_{q+1} and the first p+1
vertical edges carry labels s_{q+2}..s_{p+q+2}.  A label is consumed the
first time the path traverses its edge while still marked; afterwards
that edge behaves like an unlabeled one.  A path is good when it consumes
all p+q+2 labels.  Good paths exist exactly when i >= q+1 and j >= p+1.

Counting is done two ways: honest exhaustive traversal (every parallel
edge walked separately, consumed sets kept as bitmasks with bit a-1
standing for label s_a) and inclusion-exclusion over the labels a path
misses, which reduces to signed sums of ordinary path counts from shifted
bases (see count_good_dp).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .errors import BudgetError
from .eulerian import (DEFAULT_CELL_BUDGET, Vertex, _as_offset, _as_vertex,
                       _count, _fill, closed_form)
from .paths import (DEFAULT_ENUM_BUDGET, EulerPath, HORIZONTAL,
                    _enum_args, multiplicity, validate)


@dataclass(frozen=True)
class LabelScheme:
    """The labeling of edge bundles relative to a base vertex."""

    base: Vertex

    def __post_init__(self):
        object.__setattr__(self, "base", _as_vertex(self.base))

    @property
    def label_count(self) -> int:
        return self.base.x + self.base.y + 2

    @property
    def full_mask(self) -> int:
        return (1 << self.label_count) - 1


def edge_label(scheme: LabelScheme, at, direction: str, idx: int) -> int | None:
    """Label index a (1-based, in [1, p+q+2]) carried by the given edge, or
    None for an unlabeled edge.  `at` must be componentwise >= the base."""
    p, q = scheme.base
    x, y = _as_vertex(at)
    if x < p or y < q:
        raise ValueError(f"vertex {(x, y)} is not reachable from base {(p, q)}")
    size = multiplicity((x, y), direction)
    if not 1 <= idx <= size:
        raise ValueError(f"edge index {idx} outside bundle of size {size} "
                         f"at {(x, y)}")
    if direction == HORIZONTAL:
        return idx if idx <= q + 1 else None
    return q + 1 + idx if idx <= p + 1 else None


def is_good(scheme: LabelScheme, path: EulerPath) -> tuple[bool, int]:
    """Walk the path, consuming labels on first marked traversal.  Returns
    (goodness, consumed bitmask)."""
    if Vertex(*path.start) != scheme.base:
        raise ValueError(f"path starts at {tuple(path.start)}, "
                         f"scheme base is {tuple(scheme.base)}")
    validate(path)
    p, q = scheme.base
    mask = 0
    for step in path.steps:
        # Which label an edge carries depends only on its index within the
        # bundle, so consumption reduces to setting that label's bit.
        if step.direction == HORIZONTAL:
            if step.edge_index <= q + 1:
                mask |= 1 << (step.edge_index - 1)
        elif step.edge_index <= p + 1:
            mask |= 1 << (q + step.edge_index)
    return mask == scheme.full_mask, mask


def count_good_enumeration(base, off, *,
                           max_enum: int = DEFAULT_ENUM_BUDGET) -> int:
    """Count good paths by walking every path (each parallel edge taken
    separately) and testing the consumed set at the end."""
    (p, q), (i, j) = _enum_args(base, off, max_enum)
    # One stack entry per edge taken: the steps still to take, di * w + dj,
    # above the consumed mask's p+q+2 bits.  The vertex reached is
    # (p + i - di, q + j - dj).
    w = j + 1
    width = p + q + 2
    full = (1 << width) - 1
    h_bits = [1 << a for a in range(q + 1)]
    v_bits = [1 << a for a in range(q + 1, width)]
    n = 0
    stack = [(i * w + j) << width]
    pop, push = stack.pop, stack.append
    while stack:
        code = pop()
        if code > full:                    # steps left
            di, dj = divmod(code >> width, w)
            if di:
                child = code - (w << width)
                for bit in h_bits:
                    push(child | bit)
                stack += [child] * (j - dj)    # unlabeled horizontal edges
            if dj:
                child = code - (1 << width)
                for bit in v_bits:
                    push(child | bit)
                stack += [child] * (i - di)    # unlabeled vertical edges
        elif code == full:
            n += 1
    return n


def _sieve(p: int, q: int, imax: int, jmax: int) -> Iterator[tuple[int, int, int]]:
    # The terms (sign * C(q+1, a) * C(p+1, b), p - b, q - a) of the sum in
    # count_good_dp.  The call itself checks the (p+2)(q+2) shifted-base
    # windows of (imax+1)(jmax+1) cells against the budget; terms are lazy.
    cells = (p + 2) * (q + 2) * (imax + 1) * (jmax + 1)
    if cells > DEFAULT_CELL_BUDGET:
        raise BudgetError(f"good-path sieve over {cells} cells exceeds the "
                          f"budget of {DEFAULT_CELL_BUDGET}")
    h_signed = [(-1) ** a * comb(q + 1, a) for a in range(q + 2)]
    v_signed = [(-1) ** b * comb(p + 1, b) for b in range(p + 2)]
    return ((ha * vb, p - b, q - a)
            for a, ha in enumerate(h_signed) for b, vb in enumerate(v_signed))


def good_count_table(base, imax: int, jmax: int) -> list[list[int]]:
    """Table of good-path counts G(i, j) for 0 <= i <= imax, 0 <= j <= jmax:
    the inclusion-exclusion sum of count_good_dp, taken over whole
    recurrence tables at the shifted bases."""
    p, q = _as_vertex(base)
    if imax < 0 or jmax < 0:
        raise ValueError("table bounds must be nonnegative")
    g = [[0] * (jmax + 1) for _ in range(imax + 1)]
    for coeff, pb, qa in _sieve(p, q, imax, jmax):
        for g_row, a_row in zip(g, _fill(pb, qa, imax, jmax)):
            for j, a in enumerate(a_row):
                g_row[j] += coeff * a
    return g


def count_good_dp(base, off) -> int:
    """Good-path count by inclusion-exclusion over the labels a path misses:

        G = sum over a <= q+1, b <= p+1 of
            (-1)^(a+b) C(q+1, a) C(p+1, b) A_{p-b,q-a}(i, j).

    A path misses label s_a exactly when it never takes that label's fixed
    edge index, so the paths missing a given a horizontal and b vertical
    labels are the paths from the shifted base (p-b, q-a).  The name is
    kept from the consumed-label DP this replaced because it is public API
    (and a benchmark metric name); it must equal count_good_enumeration
    wherever both run.
    """
    p, q = _as_vertex(base)
    i, j = _as_offset(off)
    return sum(coeff * _count(pb, qa, i, j)
               for coeff, pb, qa in _sieve(p, q, i, j))


def good_fraction(base, off) -> Fraction:
    """Exact G/A at the given offset (0 below the nonemptiness threshold)."""
    p, q = _as_vertex(base)
    i, j = _as_offset(off)
    return Fraction(count_good_dp((p, q), (i, j)), _count(p, q, i, j))


def bad_path_bound(base, off) -> int:
    """Union-style upper bound on the number of non-good paths:
    (q+1) A_{p,q-1}(i,j) + (p+1) A_{p-1,q}(i,j), the first Bonferroni
    truncation (the a+b = 1 terms) of the sieve in count_good_dp.

    Terms at a base coordinate of -1 are dropped (closed_form takes only
    nonnegative bases); with both terms present (p, q >= 1) the bound
    dominates A - G exactly.  With a term dropped the returned partial sum
    is still defined but is not an upper bound.
    """
    p, q = _as_vertex(base)
    off = _as_offset(off)
    bound = 0
    if q >= 1:
        bound += (q + 1) * closed_form((p, q - 1), off)
    if p >= 1:
        bound += (p + 1) * closed_form((p - 1, q), off)
    return bound
