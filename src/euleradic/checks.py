"""Invariant checks, one per guarantee, shared by `euleradic verify` and
the acceptance tests.  Each takes its window and any cap from the caller
and returns (bad, checked): the offending cells in the order met, and the
number of cells checked, not counting those a cap skips; `problems` fails
a check that checked nothing.  Checks read the library through this
module's namespace, where a test can plant a defect; the `verify` suites
read it through here too."""

from __future__ import annotations

from itertools import product
from operator import ne

from .adic import compare, cylinder_measure, maximal_path, orbit, successor
from .encoding import _encode, decode
from .errors import DEFAULT_CELL_BUDGET, DEFAULT_ENUM_BUDGET, MaximalPathError
from .eulerian import (ORIGIN, classical_eulerian_oracle, closed_form,
                       closed_form_sym, closed_form_table,
                       coefficient_identity_check, comtet_a00, dim_between,
                       recurrence_table)
from .goodpaths import (LabelScheme, bad_path_bound, count_good_dp,
                        count_good_enumeration, good_count_table, is_good)
from .paths import count_paths_enumeration, enumerate_paths, validate
from .ratios import check_monotonicity


def grid(imax: int, jmax: int) -> list[tuple[int, int]]:
    """The pairs (i, j) with 0 <= i <= imax and 0 <= j <= jmax, row by row."""
    return [(i, j) for i in range(imax + 1) for j in range(jmax + 1)]


def level(n: int) -> list[tuple[int, int]]:
    """The vertices (x, n - x) of level n, by ascending x."""
    return [(x, n - x) for x in range(n + 1)]


def origin_form(base, off) -> int:
    """comtet_a00 called as a form(base, off); the base is the origin."""
    return comtet_a00(off)


def problems(result) -> list:
    """The bad cells of a check's (bad, checked), or one problem if checked is 0."""
    return result[0] if result[1] else ["checked 0 cells"]


def _scan(bases, cells, holds):
    # (p, q, i, j) where holds(base, off) is False; None is a cap's skip.
    bad, checked = [], 0
    for base, off in product(bases, cells):
        ok = holds(base, off)
        if ok is False:
            bad.append((*base, *off))
        checked += ok is not None
    return bad, checked


def forms_agree(bases, cells, form, reference):
    """(p, q, i, j) where form(base, off) differs from reference(base, off)."""
    return _scan(bases, cells, lambda b, off: reference(b, off) == form(b, off))


def closed_form_vs_recurrence(bases, cells, table_form, *, max_cells=DEFAULT_CELL_BUDGET):
    """(p, q, i, j) where the table table_form(base, imax, jmax, max_cells=)
    differs from the recurrence table of each base, both filled over the
    cells' bounding box."""
    cells = list(cells)
    if any(i < 0 or j < 0 for i, j in cells):
        raise IndexError("cells must be nonnegative offsets")
    box = [max(c) for c in zip(*cells)]
    tables = {b: (recurrence_table(b, *box, max_cells=max_cells).cells,
                  table_form(b, *box, max_cells=max_cells).cells) for b in bases if cells}
    bad = [(*b, i, j) for b, (rec, form) in tables.items() for i, j in cells
           if rec[i][j] != form[i][j]]
    return bad, len(tables) * len(cells)


def origin_vs_descent_oracle(cells):
    """forms_agree of the origin form and the number of permutations of
    i+j+1 letters with i descents; needs i + j >= 1."""
    return forms_agree([ORIGIN], cells, origin_form, lambda _, off:
                       classical_eulerian_oracle(off[0] + off[1] + 1, off[0]))


def coefficient_identity(ps, qs, imax: int):
    """(p, q, i), 1 <= i <= imax, where the coefficient identity fails."""
    cells = [(p, q, i) for p in ps for q in qs for i in range(1, imax + 1)]
    return [c for c in cells if ne(*coefficient_identity_check(*c))], len(cells)


def ratio_monotonicity(bases, imax: int, jmax: int):
    """(p, q, i, j, reason) where the ratio inequality fails; needs q >= 1."""
    bad = [(*b, *v) for b in bases for v in check_monotonicity(b, imax, jmax)]
    return bad, len(bases) * (imax + 1) * (jmax + 1)


def sieve_vs_exhaustive(bases, cells, *, max_enum: int = DEFAULT_ENUM_BUDGET):
    """(p, q, i, j) where count_good_dp differs from the exhaustive count;
    cells of more than max_enum paths are skipped."""
    return _scan(bases, cells, lambda b, off: None if closed_form(b, off) > max_enum
                 else count_good_dp(b, off) == count_good_enumeration(
                     b, off, max_enum=max_enum))


def nonemptiness_threshold(bases, cells):
    """(p, q, i, j) breaking the threshold: good paths exist iff i > q, j > p."""
    return _scan(bases, cells, lambda b, off: (count_good_dp(b, off) > 0)
                 == (off[0] > b[1] and off[1] > b[0]))


def bad_paths_bounded(bases, imax: int, jmax: int):
    """(p, q, i, j) where the non-good paths, A - G, exceed bad_path_bound."""
    g = {b: good_count_table(b, imax, jmax) for b in bases}
    return _scan(g, grid(imax, jmax), lambda b, off: closed_form(b, off)
                 - g[b][off[0]][off[1]] <= bad_path_bound(b, off))


def transport_bijection(bases, ends, *, max_paths: int, max_good=None):
    """(src, dst, end) for bases of one level where decoding at dst the codes
    of the good paths from src to `end` does not give each good path from
    dst to `end` once, re-encoding to its code (at src: the paths).  Sources
    with over max_paths paths, or max_good good paths, to an end are skipped.

    One pass over the walk from src holds no path: each good path is encoded
    once and its code decoded at every base, and the good paths are counted.
    Good paths must arrive in strictly increasing tuple order, as
    enumerate_paths yields them, so they are distinct, and so are their
    round-tripped images at src.  Images elsewhere re-encode to those codes,
    which are distinct while the round trip at src holds.  So the images at
    dst are as many distinct good paths to `end` as src has, and they are
    all of dst's exactly when that number is count_good_dp's at dst."""
    schemes = {b: LabelScheme(b) for b in bases}
    bad, checked = [], 0
    for src, end in product(bases, ends):
        off = (end[0] - src[0], end[1] - src[1])
        if (max_good is not None and count_good_dp(src, off) > max_good
                or closed_form(src, off) > max_paths):
            continue
        # enumerate_paths builds valid paths from src, so their goodness
        # needs no validation; every decoded image gets the full is_good.
        mine, good, prev, ok = schemes[src], 0, (), dict.fromkeys(schemes, True)
        for x in enumerate_paths(src, off, max_enum=max_paths):
            if mine.consumed(x.steps) == mine.full_mask:
                code, good, fresh = _encode(mine, x), good + 1, x > prev
                for dst, scheme in schemes.items():
                    y = decode(scheme, code)
                    ok[dst] &= fresh and (y == x if dst == src else y.end() == end
                                          and is_good(scheme, y)[0]
                                          and _encode(scheme, y) == code)
                prev = x
        bad += [(src, dst, end) for dst in schemes if not (ok[dst] and good == count_good_dp(
            dst, (end[0] - dst[0], end[1] - dst[1])))]
        checked += len(schemes)
    return bad, checked


def orbits(vertices, *, max_enum: int = DEFAULT_ENUM_BUDGET):
    """Vertices whose orbit is not every root path to them once, in
    increasing compare order, or whose maximal path has a successor.

    The orbit is walked once and holds only its previous path.  Its first
    path must end at v, and each later one must compare strictly above the
    one before it; compare checks that both are root paths to one vertex.
    Strictly increasing paths are distinct, so an orbit whose length equals
    both dim_between and the walker's count of root paths to v holds each of
    them once."""
    def complete(v):
        try:
            successor(maximal_path(v))
        except MaximalPathError:
            n = 0
            for n, cur in enumerate(orbit(v, max_enum=max_enum), 1):
                if not (compare(prev, cur) < 0 if n > 1 else validate(cur, ORIGIN) == v):
                    return False
                prev = cur
            return n == dim_between(ORIGIN, v) == count_paths_enumeration(
                ORIGIN, v, max_enum=max_enum)
        return False
    return [v for v in vertices if not complete(v)], len(vertices)


def level_measures(levels):
    """Levels n whose root paths' cylinder measures do not sum to 1."""
    return [n for n in levels if sum(dim_between(ORIGIN, v) * cylinder_measure(n)
                                     for v in level(n)) != 1], len(levels)
