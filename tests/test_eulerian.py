"""Counting formulas: closed forms, recurrence, oracles, identity."""

import pytest
from hypothesis import given, strategies as st

from math import comb, factorial

from euleradic import (
    BudgetError,
    ORIGIN,
    Vertex,
    classical_eulerian_oracle,
    closed_form,
    closed_form_sym,
    coefficient_identity_check,
    comtet_a00,
    dim_between,
    generalized_binomial,
    recurrence_table,
)
from euleradic.eulerian import _alternating_sum, _fill


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
            rows = _fill(p, q, 8, 8)
            for i in range(9):
                for j in range(9):
                    assert _alternating_sum(p, q, i, j) == rows[i][j]
                    assert _alternating_sum(q, p, j, i) == rows[i][j]


def _literal_alternating_sum(p, q, i, j):
    # The kernel's formula term by term, each binomial from
    # generalized_binomial: sum over t = 0..i of
    # (-1)^(i-t) C(p+q+t+1, t) C(p+q+i+j+2, i-t) (p+1+t)^(i+j).
    return sum((-1) ** (i - t) * generalized_binomial(p + q + t + 1, t)
               * generalized_binomial(p + q + i + j + 2, i - t)
               * (p + 1 + t) ** (i + j) for t in range(i + 1))


@given(st.integers(-1, 8), st.integers(-1, 8), st.integers(0, 40), st.integers(0, 40))
def test_alternating_sum_is_its_formula(p, q, i, j):
    assert _alternating_sum(p, q, i, j) == _literal_alternating_sum(p, q, i, j)


@given(st.integers(-1, 8), st.integers(-15, 8), st.integers(0, 40))
def test_alternating_sum_is_its_formula_at_negative_q(p, q, i):
    # The coefficient identity reads the kernel at j = 0 with q down to -15,
    # where C(p+q+t+1, t) and C(p+q+i+2, i-t) take negative upper arguments.
    assert _alternating_sum(p, q, i, 0) == _literal_alternating_sum(p, q, i, 0)


def test_skewed_offsets_sum_over_the_shorter_index():
    assert dim_between(ORIGIN, (200000, 0)) == 1


def test_comtet_matches_origin_and_descent_oracle():
    for i in range(8):
        for j in range(8 - i):
            a = comtet_a00((i, j))
            assert a == closed_form((0, 0), (i, j))
            if i + j >= 1:
                assert a == classical_eulerian_oracle(i + j + 1, i)


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


def test_negative_coordinates_rejected():
    with pytest.raises(ValueError):
        closed_form((-1, 0), (1, 1))
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


def test_dim_between():
    assert dim_between(ORIGIN, (2, 2)) == 66
    assert dim_between((1, 1), (2, 2)) == closed_form((1, 1), (1, 1))
    assert dim_between((2, 0), (1, 5)) == 0
    assert dim_between((3, 3), (3, 3)) == 1
    assert dim_between(Vertex(1, 0), Vertex(2, 1)) == 7
