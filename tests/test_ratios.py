"""Ratio monotonicity, directional limits, and dimension-ratio convergence."""

import random
import re

import pytest

from fractions import Fraction

import euleradic.ratios as ratios
from euleradic import (
    ORIGIN,
    check_monotonicity,
    closed_form,
    closed_form_sym,
    convergence_report,
    dim_between,
    directional_limit_q,
    divergence_threshold,
    monotonicity_violations,
    normalized_dim_ratio,
    ratio_down_q,
    recurrence_table,
)


def test_ratio_values():
    assert ratio_down_q((0, 1), (1, 0)) == Fraction(2, 1)
    # 7 = 4 + 3 paths from (0,1) to (1,2), counted by hand
    assert ratio_down_q((0, 1), (1, 1)) == Fraction(7, 4)
    assert ratio_down_q((1, 1), (1, 1)) == Fraction(12, 7)
    # reflection symmetry: swapping the roles of rows and columns swaps the
    # two ratio families
    for off in [(1, 2), (3, 1), (2, 2)]:
        assert ratio_down_q((2, 1), off) == Fraction(
            closed_form((1, 2), off[::-1]), closed_form((0, 2), off[::-1]))


def test_ratios_equal_quotients_of_the_j_indexed_form():
    for base, off in [((1, 1), (3, 2)), ((2, 3), (0, 4)), ((1, 1), (2000, 10))]:
        p, q = base
        assert ratio_down_q(base, off) == Fraction(
            closed_form_sym(base, off), closed_form_sym((p, q - 1), off))
        assert ratio_down_q((q, p), off[::-1]) == Fraction(
            closed_form_sym(base, off), closed_form_sym((p - 1, q), off))


def test_ratio_domain_errors():
    with pytest.raises(ValueError):
        ratio_down_q((1, 0), (1, 1))
    with pytest.raises(ValueError):
        ratio_down_q((1, 1), (0, 0))


def test_monotonicity_clean_windows():
    for p in range(3):
        for q in range(1, 4):
            assert check_monotonicity((p, q), 8, 8) == []


def test_monotonicity_checker_catches_perturbation():
    num = recurrence_table((1, 1), 7, 7)
    den = recurrence_table((1, 0), 7, 7)
    # the i=0 row has ratio identically 1, so any increment breaks the
    # non-increase in j
    num.cells[0][2] += 1
    violations = monotonicity_violations(num, den, 6, 6)
    assert (0, 1, "ratio increased with j") in violations


def _fraction_violations(num, den, imax, jmax):
    # The inequality read literally, one Fraction per ratio.
    q = num.base.y
    found = []
    for i in range(imax + 1):
        for j in range(jmax + 1):
            r = Fraction(num[i, j], den[i, j])
            if Fraction(num[i, j + 1], den[i, j + 1]) > r:
                found.append((i, j, "ratio increased with j"))
            if r > Fraction(q + j, q + 1 + j) * Fraction(num[i + 1, j], den[i + 1, j]):
                found.append((i, j, "ratio exceeds scaled next-i ratio"))
    return found


def test_monotonicity_violations_equal_the_fraction_reading():
    rng = random.Random(8)
    with_violations = 0
    for _ in range(200):
        p, q = rng.randint(0, 3), rng.randint(1, 4)
        imax, jmax = rng.randint(0, 8), rng.randint(0, 8)
        num = recurrence_table((p, q), imax + 1, jmax + 1)
        den = recurrence_table((p, q - 1), imax + 1, jmax + 1)
        for table in (num, den):
            # Nudge a few cells by a little, keeping every count positive.
            for _ in range(rng.randint(0, 4)):
                i, j = rng.randint(0, imax + 1), rng.randint(0, jmax + 1)
                cell = table.cells[i][j]
                table.cells[i][j] = max(1, cell + rng.randint(-2, 2) * (cell // 50 + 1))
        expected = _fraction_violations(num, den, imax, jmax)
        assert monotonicity_violations(num, den, imax, jmax) == expected
        with_violations += bool(expected)
    assert 20 < with_violations < 200


@pytest.mark.parametrize("cell", [(0, 0), (2, 4), (4, 1), (3, 4)])
@pytest.mark.parametrize("value", [0, -1])
def test_monotonicity_violations_need_positive_denominators(cell, value):
    # Window 3x3: the scan reads den up to (4, 3) and (3, 4).
    num = recurrence_table((1, 2), 4, 4)
    den = recurrence_table((1, 1), 4, 4)
    den.cells[cell[0]][cell[1]] = value
    with pytest.raises(ValueError):
        monotonicity_violations(num, den, 3, 3)


@pytest.mark.parametrize("num_end,den_end", [((2, 2), (3, 3)), ((3, 3), (3, 2)),
                                             ((2, 3), (3, 3))])
def test_monotonicity_violations_name_a_short_table(num_end, den_end):
    # Window 2x2: the scan reads both tables out to (3, 3).
    num = recurrence_table((0, 1), *num_end)
    den = recurrence_table((0, 0), *den_end)
    short = num if num_end != (3, 3) else den
    with pytest.raises(IndexError, match=rf"^{re.escape(repr(short))} stops short of "
                                         r"\(3, 3\), the extent the window reads$"):
        monotonicity_violations(num, den, 2, 2)


@pytest.mark.parametrize("imax,jmax", [(-1, 3), (3, -1), (-2, 3)])
def test_a_negative_monotonicity_window_is_refused_before_any_table(monkeypatch,
                                                                     imax, jmax):
    # A window one short of empty once read as a pass; one shorter raised
    # from inside recurrence_table.  Both now raise the same error first.
    def refuse(*args, **kwargs):
        raise AssertionError("check_monotonicity built a table")

    monkeypatch.setattr(ratios, "recurrence_table", refuse)
    with pytest.raises(ValueError, match=re.escape(
            f"window bounds must be nonnegative, got {(imax, jmax)}")):
        check_monotonicity((0, 1), imax, jmax)


@pytest.mark.parametrize("imax,jmax", [(-1, 2), (2, -1), (-3, -3)])
def test_a_negative_window_of_given_tables_is_refused(imax, jmax):
    # An empty scan once returned [], which reads as a pass.
    num = recurrence_table((0, 1), 3, 3)
    den = recurrence_table((0, 0), 3, 3)
    with pytest.raises(ValueError, match=re.escape(
            f"window bounds must be nonnegative, got {(imax, jmax)}")):
        monotonicity_violations(num, den, imax, jmax)


def test_monotonicity_check_needs_q_at_least_one(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check_monotonicity built a table")

    monkeypatch.setattr(ratios, "recurrence_table", refuse)
    for base in [(2, 0), (0, 0)]:
        with pytest.raises(ValueError, match=re.escape(
                f"monotonicity check needs q >= 1, got base {base}")):
            check_monotonicity(base, 3, 3)


def test_monotonicity_violations_skip_the_unread_corner():
    num = recurrence_table((1, 2), 4, 4)
    den = recurrence_table((1, 1), 4, 4)
    den.cells[4][4] = 0
    assert monotonicity_violations(num, den, 3, 3) == []


def test_monotonicity_scan_builds_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("the monotonicity scan built a Fraction")

    monkeypatch.setattr(ratios, "Fraction", refuse)
    assert check_monotonicity((2, 3), 12, 12) == []


def test_directional_limit_values():
    assert directional_limit_q((0, 1), 0) == 1
    assert directional_limit_q((1, 1), 3) == 2
    assert directional_limit_q((2, 3), 4) == Fraction(5, 3)
    with pytest.raises(ValueError):
        directional_limit_q((2, 0), 1)


def test_directional_limit_needs_a_nonnegative_row():
    for i in [-1, -5]:
        with pytest.raises(ValueError, match=f"^i must be nonnegative, got {i}$"):
            directional_limit_q((1, 1), i)


def test_ratio_descends_to_directional_limit():
    base = (2, 1)
    for i in range(4):
        limit = directional_limit_q(base, i)
        first_j = 1 if i == 0 else 0
        values = [ratio_down_q(base, (i, j)) for j in range(first_j, 16)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v >= limit for v in values)
        assert values[-1] - limit < Fraction(1, 2)


def test_divergence_threshold_values():
    assert divergence_threshold((1, 1), 3) == 3
    assert divergence_threshold((1, 1), 0) == 0
    assert divergence_threshold((1, 1), Fraction(1, 2)) == 0
    assert divergence_threshold((2, 2), 10) == 28
    # (5+6+I-1)/(5+6-1) > 7/5 first at I = 5; I = 4 gives exactly 7/5.
    assert divergence_threshold((5, 6), Fraction(7, 5)) == 5
    with pytest.raises(TypeError, match="got float 1.4"):
        divergence_threshold((5, 6), 1.4)
    with pytest.raises(ValueError):
        divergence_threshold((1, 0), 3)
    with pytest.raises(ValueError):
        divergence_threshold((0, 1), 3)


def test_divergence_threshold_window():
    # ratios stay above M on the spot-check window i in [I, I+5], j <= 20
    base, M = (2, 2), 10
    I = divergence_threshold(base, M)
    num = recurrence_table(base, I + 5, 20)
    den = recurrence_table((base[0], base[1] - 1), I + 5, 20)
    for i in range(I, I + 6):
        for j in range(21):
            assert Fraction(num[i, j], den[i, j]) > M


def test_normalized_dim_ratio():
    assert normalized_dim_ratio(ORIGIN, (5, 7)) == 1
    assert normalized_dim_ratio((1, 0), (1, 0)) == 1
    assert normalized_dim_ratio((2, 0), (1, 5)) == 0
    gap = abs(normalized_dim_ratio((1, 0), (41, 40)) - Fraction(1, 2))
    assert gap < Fraction(1, 1000)


def test_path_decomposition_identity():
    # every root path to Q passes through exactly one vertex at each level
    Q = (4, 3)
    for n in range(1, 7):
        total = sum(dim_between(ORIGIN, (x, n - x)) * dim_between((x, n - x), Q)
                    for x in range(n + 1))
        assert total == dim_between(ORIGIN, Q)


def test_convergence_report_gaps_shrink():
    records = convergence_report((1, 1), [(10, 10), (20, 20), (40, 40)])
    assert [tuple(r.off) for r in records] == [(10, 10), (20, 20), (40, 40)]
    assert all(r.target == Fraction(1, 6) for r in records)
    gaps = [r.abs_gap for r in records]
    assert gaps[0] > gaps[1] > gaps[2]
    assert abs(6 * records[-1].ratio - 1) < Fraction(1, 100)


def test_convergence_report_root_is_exact():
    for rec in convergence_report(ORIGIN, [(3, 5), (9, 9)]):
        assert rec.ratio == 1 and rec.abs_gap == 0


def test_convergence_report_equal_targets_across_level():
    r0 = convergence_report((0, 2), [(12, 12)])[0]
    r1 = convergence_report((1, 1), [(12, 12)])[0]
    r2 = convergence_report((2, 0), [(12, 12)])[0]
    assert r0.target == r1.target == r2.target == Fraction(1, 6)


def test_convergence_report_rejects_unordered_samples():
    with pytest.raises(ValueError):
        convergence_report((1, 1), [(5, 5), (5, 9)])
    with pytest.raises(ValueError):
        convergence_report((1, 1), [(5, 5), (4, 9)])


def test_delta_at_60():
    # frozen from an exact scan: every level <= 3 base is inside 1/100 of
    # its target at offset (60,60)
    for n in range(4):
        for x in range(n + 1):
            rec = convergence_report((x, n - x), [(60, 60)])[0]
            assert rec.abs_gap / rec.target < Fraction(1, 100)
