"""Exact-rational ratio analysis of the path counts.

Ratios of the form A_{p,q}/A_{p,q-1} are monotone in each coordinate and
converge, for fixed i as j grows, down to (p+q+i+1)/(p+q+1); the
normalized dimension ratio dim(P,Q)/dim(R,Q) converges to 1/(n+1)! as Q
moves deep into the interior, where n is the level of P.  Every ratio and
limit this module returns is a fractions.Fraction, and all convergence
tolerances used by callers are frozen rational constants, not
floating-point epsilons.  The monotonicity scan builds no Fraction: it
compares ratios of positive counts by cross-multiplying exact integers,
so it needs positive denominators.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, floor
from typing import NamedTuple

from .eulerian import (CountTable, Offset, ORIGIN, Vertex, _as_offset,
                       _as_vertex, _count, dim_between, recurrence_table)


def ratio_down_q(base, off) -> Fraction:
    """A_{p,q}(i, j) / A_{p,q-1}(i, j), exactly.  Requires q >= 1.  By the
    reflection (p, q, i, j) -> (q, p, j, i), A_{p,q}(i, j) / A_{p-1,q}(i, j)
    is ratio_down_q((q, p), (j, i))."""
    p, q = _as_vertex(base)
    i, j = _as_offset(off)
    if q < 1:
        raise ValueError(f"ratio_down_q needs q >= 1, got base {(p, q)}")
    if (i, j) == (0, 0):
        raise ValueError("ratio is not defined at the zero offset")
    return Fraction(_count(p, q, i, j), _count(p, q - 1, i, j))


def _check_window(imax: int, jmax: int) -> None:
    if imax < 0 or jmax < 0:
        raise ValueError(f"window bounds must be nonnegative, got {(imax, jmax)}")


def monotonicity_violations(num: CountTable, den: CountTable,
                            imax: int, jmax: int) -> list[tuple[int, int, str]]:
    """Check the two-sided ratio inequality on a pair of count tables.

    With r(i,j) = num[i,j]/den[i,j] and q the second coordinate of num's
    base, every cell (i, j) with i <= imax, j <= jmax must satisfy

        r(i, j+1) <= r(i, j) <= (q+j)/(q+1+j) * r(i+1, j).

    Both sides are compared exactly by cross-multiplying, so every
    denominator cell the window reads (den[i, j] for i <= imax+1 and
    j <= jmax+1, but not the corner (imax+1, jmax+1)) must be positive;
    a zero or negative one, or a negative bound, raises ValueError.
    Tables must extend to (imax+1, jmax+1); a shorter one raises
    IndexError.  Returns the offending (i, j, reason) triples, row by row;
    separated from check_monotonicity so tests can feed perturbed tables.
    """
    _check_window(imax, jmax)
    for table in num, den:
        if table.imax <= imax or table.jmax <= jmax:
            raise IndexError(f"{table!r} stops short of ({imax + 1}, {jmax + 1}), "
                             f"the extent the window reads")
    for i, row in enumerate(den.cells[:imax + 2]):
        if min(row[:jmax + 2 if i <= imax else jmax + 1]) <= 0:
            raise ValueError(f"denominator row {i} holds a count <= 0 inside the "
                             f"window; ratios need positive denominators")
    q = num.base.y
    violations: list[tuple[int, int, str]] = []
    for i in range(imax + 1):
        n_row, n_next = num.cells[i], num.cells[i + 1]
        d_row, d_next = den.cells[i], den.cells[i + 1]
        for j in range(jmax + 1):
            n, d = n_row[j], d_row[j]
            # r(i, j+1) > r(i, j)
            if n_row[j + 1] * d > n * d_row[j + 1]:
                violations.append((i, j, "ratio increased with j"))
            # r(i, j) > (q+j)/(q+1+j) * r(i+1, j)
            if (q + 1 + j) * n * d_next[j] > (q + j) * n_next[j] * d:
                violations.append((i, j, "ratio exceeds scaled next-i ratio"))
    return violations


def check_monotonicity(base, imax: int, jmax: int) -> list[tuple[int, int, str]]:
    """Scan the window 0 <= i <= imax, 0 <= j <= jmax for violations of the
    two-sided ratio inequality.  A correct table pair yields an empty list.
    """
    p, q = _as_vertex(base)
    if q < 1:
        raise ValueError(f"monotonicity check needs q >= 1, got base {(p, q)}")
    _check_window(imax, jmax)
    num = recurrence_table((p, q), imax + 1, jmax + 1)
    den = recurrence_table((p, q - 1), imax + 1, jmax + 1)
    return monotonicity_violations(num, den, imax, jmax)


def directional_limit_q(base, i: int) -> Fraction:
    """The limit of j -> ratio_down_q(base, (i, j)) as j grows:
    (p+q+i+1)/(p+q+1), exactly."""
    p, q = _as_vertex(base)
    if q < 1:
        raise ValueError(f"directional limit needs q >= 1, got base {(p, q)}")
    if i < 0:
        raise ValueError(f"i must be nonnegative, got {i}")
    return Fraction(p + q + i + 1, p + q + 1)


def divergence_threshold(base, M) -> int:
    """Smallest I with (p+q+I-1)/(p+q-1) > M; for offsets with i >= I the
    ratio_down_q values stay above M (checked on finite windows, since the
    inequality at the limit controls large i).  Requires p+q >= 2, and M
    exact: a float is refused, as Fraction would read its binary value."""
    if isinstance(M, float):
        raise TypeError(f"M must be exact (an int or a Fraction), got float {M!r}")
    p, q = _as_vertex(base)
    if q < 1:
        raise ValueError(f"divergence threshold needs q >= 1, got base {(p, q)}")
    if p + q < 2:
        raise ValueError(f"threshold construction needs p+q >= 2, got base {(p, q)}")
    bound = (Fraction(M) - 1) * (p + q - 1)  # I must be strictly above this
    if bound < 0:
        return 0
    return floor(bound) + 1


def normalized_dim_ratio(P, Q) -> Fraction:
    """dim(P, Q) / dim(R, Q): the fraction of root-to-Q paths passing
    through P, exactly.  Zero when Q is not componentwise >= P."""
    return Fraction(dim_between(P, Q), dim_between(ORIGIN, Q))


class ConvergenceRecord(NamedTuple):
    """One sampled point of the normalized-dimension-ratio experiment."""

    base: Vertex
    off: Offset
    ratio: Fraction
    target: Fraction
    abs_gap: Fraction


def convergence_report(P, samples) -> list[ConvergenceRecord]:
    """Evaluate |normalized_dim_ratio(P, P+off) - 1/(n+1)!| at each sample
    offset, exactly, where n is the level of P.

    Samples must be strictly increasing in both coordinates (a walk into
    the interior).
    """
    P = _as_vertex(P)
    offs = [_as_offset(o) for o in samples]
    for a, b in zip(offs, offs[1:]):
        if not (a.i < b.i and a.j < b.j):
            raise ValueError(
                f"samples must be strictly increasing in both coordinates; "
                f"{tuple(a)} then {tuple(b)}")
    target = Fraction(1, factorial(P.level + 1))
    records = []
    for off in offs:
        ratio = normalized_dim_ratio(P, Vertex(P.x + off.i, P.y + off.j))
        records.append(ConvergenceRecord(P, off, ratio, target, abs(ratio - target)))
    return records
