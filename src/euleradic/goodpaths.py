"""Edge labeling relative to a base vertex, and good-path counting.

LabelScheme states which edges carry which labels.  A label is consumed
the first time the path traverses its edge while still marked;
afterwards that edge behaves like an unlabeled one.  A path is good when
it consumes all p+q+2 labels.  Good paths exist exactly when i >= q+1
and j >= p+1.

Counting is done two ways: honest exhaustive traversal (every parallel
edge walked separately, consumed sets kept as LabelScheme masks) and
inclusion-exclusion over the labels a path misses, which reduces to
signed sums of ordinary path counts from shifted bases (see
count_good_dp).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb
from typing import Iterator

from .errors import DEFAULT_CELL_BUDGET, DEFAULT_ENUM_BUDGET, BudgetError
from .eulerian import Vertex, _as_offset, _as_vertex, _count, _fill
from .paths import (EncodingSymbol, EulerPath, HORIZONTAL, KINDS, Step, VERTICAL,
                    _Table, _enum_args, validate)


class LabelScheme:
    """The labeling of edge bundles relative to a base vertex (p, q).

    This is the one statement of the label rule.  In every bundle above
    the base, horizontal edge k <= q+1 carries label s_k, vertical edge
    k <= p+1 carries s_{q+1+k}, and every other edge is unlabeled.  In a
    mask of labels, bit a-1 stands for s_a, so `bundles` maps each
    direction to its first mask bit and its labeled-edge count:
    H to (0, q+1) and V to (q+1, p+1).  `full_mask` has all p+q+2 label
    bits set.  A scheme is immutable, equal by its base alone, and owns the
    steps decode returns, the symbols encode emits (by kind, as in KINDS)
    and `_directions`: for H then V, (first bit, count, unmarked symbols).
    """

    __slots__ = ("base", "bundles", "label_count", "full_mask", "_steps", "_symbols",
                 "_directions")

    def __init__(self, base):
        p, q = base = _as_vertex(base)
        bundles = {HORIZONTAL: (0, q + 1), VERTICAL: (q + 1, p + 1)}
        symbols = tuple(_Table(partial(EncodingSymbol, k)) for k in KINDS)
        for name, value in zip(self.__slots__, (
                base, bundles, p + q + 2, (1 << (p + q + 2)) - 1,
                {d: _Table(partial(Step, d)) for d in bundles}, symbols,
                ((0, q + 1, symbols[1]), (q + 1, p + 1, symbols[2]))), strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"LabelScheme(base={self.base!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.base == other.base
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.base,))

    def __reduce__(self):
        return LabelScheme, (self.base,)

    def consumed(self, steps) -> int:
        """Mask of the labels a sequence of steps consumes."""
        bundles = self.bundles
        mask = 0
        for direction, idx in steps:
            first, labeled = bundles[direction]
            if idx <= labeled:
                mask |= 1 << (first + idx - 1)
        return mask


def edge_label(scheme: LabelScheme, at, direction: str, idx: int) -> int | None:
    """Label index a (1-based, in [1, p+q+2]) carried by the given edge, or
    None for an unlabeled edge.  `at` must be componentwise >= the base,
    and the edge is checked as the one step of a path from `at`."""
    p, q = scheme.base
    x, y = at = _as_vertex(at)
    if x < p or y < q:
        raise ValueError(f"vertex {(x, y)} is not reachable from base {(p, q)}")
    validate(EulerPath(at, (Step(direction, idx),)))
    first, labeled = scheme.bundles[direction]
    return first + idx if idx <= labeled else None


def is_good(scheme: LabelScheme, path: EulerPath) -> tuple[bool, int]:
    """Walk the path, consuming labels on first marked traversal.  Returns
    (goodness, consumed bitmask)."""
    validate(path, scheme.base)
    mask = scheme.consumed(path.steps)
    return mask == scheme.full_mask, mask


def count_good_enumeration(base, off, *,
                           max_enum: int = DEFAULT_ENUM_BUDGET) -> int:
    """Count good paths by walking every path (each parallel edge taken
    separately) and testing the consumed set at the end."""
    base, (i, j) = _enum_args(base, off, max_enum)
    scheme = LabelScheme(base)
    # One stack entry per edge taken: the steps still to take, di * w + dj,
    # above the consumed mask's p+q+2 bits.  The vertex reached is
    # (p + i - di, q + j - dj), whose horizontal bundle has j - dj edges
    # past the labeled ones and whose vertical bundle has i - di.
    w = j + 1
    width = scheme.label_count
    full = scheme.full_mask
    h_bits, v_bits = ([1 << (first + k) for k in range(labeled)]
                      for first, labeled in map(scheme.bundles.get,
                                                (HORIZONTAL, VERTICAL)))
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
    wherever both run.  Below the threshold, i <= q or j <= p, it is 0.
    """
    p, q = _as_vertex(base)
    i, j = _as_offset(off)
    if i <= q or j <= p:
        return 0
    return sum(coeff * _count(pb, qa, i, j)
               for coeff, pb, qa in _sieve(p, q, i, j))


def good_fraction(base, off) -> Fraction:
    """Exact G/A at the given offset (0 below the nonemptiness threshold)."""
    p, q = _as_vertex(base)
    i, j = _as_offset(off)
    return Fraction(count_good_dp((p, q), (i, j)), _count(p, q, i, j))


def bad_path_bound(base, off) -> int:
    """Union bound on the number of non-good paths:
    (q+1) A_{p,q-1}(i,j) + (p+1) A_{p-1,q}(i,j), the first Bonferroni
    truncation (the a+b = 1 terms) of the sieve in count_good_dp.

    Each term counts the paths that miss one given label, so the bound
    dominates A - G at every base; a term at base coordinate -1 counts
    paths from a base whose bundles in that direction have one edge fewer.
    """
    p, q = _as_vertex(base)
    i, j = _as_offset(off)
    return (q + 1) * _count(p, q - 1, i, j) + (p + 1) * _count(p - 1, q, i, j)
