"""Counting formulas: closed forms, recurrence, oracles, identity."""

import inspect
import time
from itertools import islice
from operator import mul

import pytest
from hypothesis import given, strategies as st

from math import comb, factorial

import euleradic.eulerian as eulerian
from euleradic import (
    BudgetError,
    ORIGIN,
    Vertex,
    bad_path_bound,
    classical_eulerian_oracle,
    closed_form,
    closed_form_sym,
    closed_form_table,
    coefficient_identity_check,
    comtet_a00,
    count_good_dp,
    count_good_enumeration,
    count_paths_enumeration,
    dim_between,
    enumerate_paths,
    good_fraction,
    ratio_down_q,
    recurrence_table,
)
from euleradic.eulerian import _fill, _level, _levels


def _sum(terms, signed):
    # The kernel's alternating sum: the dot product of its two lists.
    return sum(map(mul, terms, signed))


def test_known_small_values():
    assert closed_form((0, 0), (0, 0)) == 1
    assert closed_form((0, 0), (1, 1)) == 4
    assert closed_form((0, 0), (2, 1)) == 11
    assert closed_form((0, 0), (2, 2)) == 66
    assert closed_form((1, 1), (1, 1)) == 12
    # 7 = 1*3 + 2*2: the two step orders from (1,0) to (2,1), counted by hand
    assert closed_form((1, 0), (1, 1)) == 7


def test_boundary_rows_are_pure_powers():
    for p in range(4):
        for q in range(4):
            for k in range(8):
                assert closed_form((p, q), (k, 0)) == (q + 1) ** k
                assert closed_form((p, q), (0, k)) == (p + 1) ** k


def test_closed_forms_agree_with_recurrence():
    for p in range(4):
        for q in range(4):
            table = recurrence_table((p, q), 8, 8)
            for i in range(9):
                for j in range(9):
                    a = table[i, j]
                    assert closed_form((p, q), (i, j)) == a
                    assert closed_form_sym((p, q), (i, j)) == a


def test_kernel_at_bases_down_to_minus_one():
    # Base coordinate -1 is the internal case the good-path sieve relies on;
    # the reflection (p, q, i, j) -> (q, p, j, i) holds there as well.
    for p in range(-1, 4):
        for q in range(-1, 4):
            rows = list(_fill(p, q, 8, 8))
            for i in range(9):
                for j in range(9):
                    assert _sum(*_level(p, q, i + j, i)) == rows[i][j]
                    assert _sum(*_level(q, p, i + j, j)) == rows[i][j]
            # and as stepped levels: each cell of level e over i from the
            # (p, q) terms, and over j from the mirror's
            for e, (terms, mirror, signed) in zip(range(17), _levels(p, q, 8)):
                for i in range(max(0, e - 8), min(e, 8) + 1):
                    assert _sum(terms[8 - i:], signed) == rows[i][e - i]
                    assert _sum(mirror[8 - e + i:], signed) == rows[i][e - i]


def generalized_binomial(m: int, k: int) -> int:
    """Binomial coefficient C(m, k) for an arbitrary integer upper argument,
    via the falling factorial m(m-1)...(m-k+1) / k!: the kernel's oracle.

    Exact for every integer m (the product of k consecutive integers is
    divisible by k!); this is the polynomial-in-m reading, so negative m
    is legal.  For m >= 0 it is math.comb, which agrees.
    """
    if k < 0:
        raise ValueError(f"lower argument must be nonnegative, got {k}")
    if m >= 0:
        return comb(m, k)
    num = 1
    for s in range(k):
        num *= m - s
    return num // factorial(k)


def _literal_alternating_sum(p, q, i, j):
    # The kernel's formula term by term, each binomial from
    # generalized_binomial: sum over t = 0..i of
    # (-1)^(i-t) C(p+q+t+1, t) C(p+q+i+j+2, i-t) (p+1+t)^(i+j).
    return sum((-1) ** (i - t) * generalized_binomial(p + q + t + 1, t)
               * generalized_binomial(p + q + i + j + 2, i - t)
               * (p + 1 + t) ** (i + j) for t in range(i + 1))


@given(st.integers(-1, 8), st.integers(-1, 8), st.integers(0, 40), st.integers(0, 40))
def test_alternating_sum_is_its_formula(p, q, i, j):
    assert _sum(*_level(p, q, i + j, i)) == _literal_alternating_sum(p, q, i, j)


@given(st.integers(-1, 8), st.integers(-15, 8), st.integers(0, 40))
def test_alternating_sum_is_its_formula_at_negative_q(p, q, i):
    # The coefficient identity reads the kernel at j = 0 with q down to -15,
    # where C(p+q+t+1, t) and C(p+q+i+2, i-t) take negative upper arguments.
    assert _sum(*_level(p, q, i, i)) == _literal_alternating_sum(p, q, i, 0)


@given(st.integers(-1, 8), st.integers(-1, 8), st.integers(0, 25),
       st.integers(0, 25), st.integers(1, 25))
def test_a_run_is_its_formula_at_every_cell(p, q, i, j0, length):
    # Pascal's rule steps the signed row from level to level; each cell of
    # a run along j, read off the stepped levels, must still be the formula
    # evaluated afresh, and so must the mirror's cell at each level.
    _run_is_its_formula(p, q, i, j0, length)


def _run_is_its_formula(p, q, i, j0, length):
    levels = list(islice(_levels(p, q, i), i + j0, i + j0 + length))
    assert [_sum(terms, signed) for terms, _, signed in levels] == [
        _literal_alternating_sum(p, q, i, j) for j in range(j0, j0 + length)]
    assert [_sum(mirror, signed) for _, mirror, signed in levels] == [
        _literal_alternating_sum(q, p, i, j) for j in range(j0, j0 + length)]


@given(st.integers(-1, 4), st.integers(-15, -2), st.integers(0, 8),
       st.integers(0, 4), st.integers(1, 8))
def test_a_run_is_its_formula_at_negative_q(p, q, i, j0, length):
    # Upper arguments pass through 0 and below as N = p+q+i+j+2 grows.
    _run_is_its_formula(p, q, i, j0, length)


@given(st.integers(-1, 8), st.integers(-15, 8), st.integers(0, 12), st.integers(0, 30))
def test_a_stepped_level_is_the_level_built_fresh(p, q, k, levels):
    # closed_form_table steps each level's lists from the last; at every
    # level they must be what the kernel builds afresh, on both sides.
    for e, (terms, mirror, signed) in zip(range(levels + 1), _levels(p, q, k)):
        assert (terms, signed) == _level(p, q, e, k)
        assert (mirror, signed) == _level(q, p, e, k)


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 20), st.integers(0, 20))
def test_closed_form_table_is_the_recurrence_and_the_closed_form(p, q, imax, jmax):
    table = closed_form_table((p, q), imax, jmax)
    assert table.cells == recurrence_table((p, q), imax, jmax).cells
    assert (table.base, table.imax, table.jmax) == ((p, q), imax, jmax)
    assert all(table[i, j] == closed_form((p, q), (i, j))
               for i in range(imax + 1) for j in range(jmax + 1))


def test_closed_form_table_shares_the_recurrence_bounds_and_budget():
    for make in (closed_form_table, recurrence_table):
        with pytest.raises(ValueError, match="table bounds must be nonnegative"):
            make((0, 0), -1, 3)
        with pytest.raises(BudgetError, match="table of 12 cells exceeds the budget of 11"):
            make((0, 0), 2, 3, max_cells=11)
        with pytest.raises(ValueError):
            make((-1, 0), 1, 1)
        assert make((2, 1), 0, 0).cells == [[1]]


def test_skewed_offsets_sum_over_the_shorter_index():
    assert dim_between(ORIGIN, (200000, 0)) == 1


def test_a_tall_closed_form_table_sums_over_the_shorter_index():
    # Summed over i, cell (i, j) of this 2,002-cell table would take i+1
    # terms; summed over its shorter index j, it takes at most 2.
    start = time.perf_counter()
    table = closed_form_table(ORIGIN, 1000, 1)
    elapsed = time.perf_counter() - start
    assert table.cells == recurrence_table(ORIGIN, 1000, 1).cells
    assert elapsed < 1.0


@pytest.mark.parametrize("imax,jmax", [(9, 9), (14, 4), (4, 14)])
def test_every_closed_form_table_cell_sums_over_its_shorter_index(monkeypatch,
                                                                  imax, jmax):
    # Each cell is one dot product, whose shorter list sets its terms.  Each
    # cell must be placed by exactly one, from its own orientation when
    # i <= j and from the mirror's when i > j, so that it costs min(i, j)+1.
    # With p != q the terms tell which orientation it took.
    dots = []
    dot = eulerian._dot

    def recorded(terms, signed, p, q, i, j):
        dots.append((terms[:len(signed)], i, j))
        return dot(terms, signed, p, q, i, j)

    monkeypatch.setattr(eulerian, "_dot", recorded)
    table = closed_form_table((2, 1), imax, jmax)
    assert table.cells == recurrence_table((2, 1), imax, jmax).cells
    assert sum(len(terms) for terms, _, _ in dots) == sum(
        min(i, j) + 1 for i in range(imax + 1) for j in range(jmax + 1))
    assert all(terms == (_level(2, 1, i + j, i) if i <= j else _level(1, 2, i + j, j))[0]
               for terms, i, j in dots)
    placed = [(i, j) for _, i, j in dots]
    assert sorted(placed) == [(i, j) for i in range(imax + 1) for j in range(jmax + 1)]


def test_comtet_matches_origin_and_descent_oracle():
    for i in range(8):
        for j in range(8 - i):
            a = comtet_a00((i, j))
            assert a == closed_form((0, 0), (i, j))
            if i + j >= 1:
                assert a == classical_eulerian_oracle(i + j + 1, i)


def test_comtet_sums_without_the_kernel(monkeypatch):
    # The origin form is a check on the kernel only if it does not call it.
    cells = [(i, j) for i in range(30) for j in range(30)]
    expected = [closed_form(ORIGIN, off) for off in cells]

    def kernel(*args):
        raise AssertionError("comtet_a00 ran the closed-form kernel")
    monkeypatch.setattr(eulerian, "_level", kernel)
    monkeypatch.setattr(eulerian, "_dot", kernel)
    assert [comtet_a00(off) for off in cells] == expected


def test_level_sums_are_factorials():
    for n in range(9):
        assert sum(comtet_a00((i, n - i)) for i in range(n + 1)) == factorial(n + 1)


def test_oracle_domain_errors():
    with pytest.raises(ValueError):
        classical_eulerian_oracle(0, 0)
    with pytest.raises(ValueError):
        classical_eulerian_oracle(4, 4)
    with pytest.raises(ValueError):
        classical_eulerian_oracle(4, -1)
    with pytest.raises(BudgetError):
        classical_eulerian_oracle(11, 3)
    assert classical_eulerian_oracle(9, 4) == 156190
    assert classical_eulerian_oracle(6, 0) == 1


def test_the_oracle_limit_is_the_module_constant(monkeypatch):
    assert "max_n" not in inspect.signature(classical_eulerian_oracle).parameters
    with pytest.raises(BudgetError, match=r"the limit n <= 10$"):
        classical_eulerian_oracle(11, 0)
    # n = 10 passes the limit.  The sweep of 10! permutations takes seconds,
    # so a stand-in records the n it is asked for.
    swept = []
    monkeypatch.setattr(eulerian, "_descent_histogram",
                        lambda n: swept.append(n) or tuple(range(n)))
    assert classical_eulerian_oracle(10, 7) == 7 and swept == [10]


# Each public reader of an offset, called with a fixed base.
OFFSET_READERS = {
    "closed_form": lambda off: closed_form(ORIGIN, off),
    "closed_form_sym": lambda off: closed_form_sym(ORIGIN, off),
    "comtet_a00": comtet_a00,
    "count_good_dp": lambda off: count_good_dp(ORIGIN, off),
    "good_fraction": lambda off: good_fraction(ORIGIN, off),
    "bad_path_bound": lambda off: bad_path_bound(ORIGIN, off),
    "ratio_down_q": lambda off: ratio_down_q((1, 1), off),
    "enumerate_paths": lambda off: enumerate_paths(ORIGIN, off),
    "count_paths_enumeration": lambda off: count_paths_enumeration(ORIGIN, off),
    "count_good_enumeration": lambda off: count_good_enumeration(ORIGIN, off),
}


@pytest.mark.parametrize("name", OFFSET_READERS)
def test_a_malformed_offset_is_named(name):
    read = OFFSET_READERS[name]
    for off in [(1, 2, 3), (1,), []]:
        with pytest.raises(ValueError) as err:
            read(off)
        assert str(err.value) == f"offset must be two components, got {off!r}"
    with pytest.raises(TypeError):
        read(5)


def test_negative_coordinates_rejected():
    with pytest.raises(ValueError):
        closed_form((-1, 0), (1, 1))


def test_a_negative_vertex_is_named_as_read():
    # The message names the coordinates read, also from an iterator.
    for vertex in [iter((-1, 0)), (-1, 0), [-1, 0]]:
        with pytest.raises(ValueError) as err:
            closed_form(vertex, (1, 1))
        assert str(err.value) == "vertex coordinates must be nonnegative, got (-1, 0)"
    with pytest.raises(ValueError):
        closed_form((0, 0), (-1, 1))
    with pytest.raises(ValueError):
        recurrence_table((0, -2), 3, 3)


def test_table_window_and_budget():
    table = recurrence_table((1, 2), 3, 4)
    assert table.cells[0] == [1, 2, 4, 8, 16]
    with pytest.raises(IndexError):
        table[4, 0]
    with pytest.raises(IndexError):
        table[0, 5]
    with pytest.raises(BudgetError):
        recurrence_table((0, 0), 99, 99, max_cells=100)


def test_generalized_binomial():
    assert generalized_binomial(5, 2) == comb(5, 2)
    assert generalized_binomial(5, 0) == 1
    assert generalized_binomial(-3, 2) == 6
    assert generalized_binomial(-1, 3) == -1
    with pytest.raises(ValueError):
        generalized_binomial(5, -1)


@pytest.mark.parametrize("p", range(4))
def test_coefficient_identity_incl_negative_q(p):
    for q in range(-15, 16):
        for i in range(1, 8):
            lhs, rhs = coefficient_identity_check(p, q, i)
            assert lhs == rhs == (q + 1) ** i


def test_coefficient_identity_domain():
    with pytest.raises(ValueError):
        coefficient_identity_check(-1, 0, 2)
    with pytest.raises(ValueError):
        coefficient_identity_check(1, 0, 0)


@pytest.mark.parametrize("args", [(0.5, 0, 2), (1, 0.5, 2), (1, 0, 2.0)])
def test_coefficient_identity_reads_integers_only(args):
    # The kernel would take a float through its arithmetic and return floats.
    with pytest.raises(TypeError):
        coefficient_identity_check(*args)
    # bool is an int, and q may be negative.
    assert coefficient_identity_check(True, -3, 2) == ((-2) ** 2,) * 2


def test_dim_between():
    assert dim_between(ORIGIN, (2, 2)) == 66
    assert dim_between((1, 1), (2, 2)) == closed_form((1, 1), (1, 1))
    assert dim_between((2, 0), (1, 5)) == 0
    assert dim_between((3, 3), (3, 3)) == 1
    assert dim_between(Vertex(1, 0), Vertex(2, 1)) == 7
