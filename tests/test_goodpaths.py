"""Label scheme, goodness, and the two good-path counters."""

import copy
import pickle
import tracemalloc

import pytest

from fractions import Fraction
from math import comb

from euleradic import (
    BudgetError,
    DecodeError,
    EncodingSequence,
    EncodingSymbol,
    LabelScheme,
    Step,
    Vertex,
    encode,
    bad_path_bound,
    closed_form,
    count_good_dp,
    count_good_enumeration,
    decode,
    edge_label,
    good_count_table,
    good_fraction,
    is_good,
    parse_path,
)


def _reduced_count(base, off, h, v):
    # paths when h horizontal and v vertical labeled edges are forbidden:
    # every bundle shrinks by a constant, so the usual recurrence applies
    # with reduced factors
    p, q = base
    i, j = off
    grid = [[0] * (j + 1) for _ in range(i + 1)]
    grid[0][0] = 1
    for a in range(i + 1):
        for b in range(j + 1):
            if a:
                grid[a][b] += (q + b + 1 - h) * grid[a - 1][b]
            if b:
                grid[a][b] += (p + a + 1 - v) * grid[a][b - 1]
    return grid[i][j]


def good_count_by_sieve(base, off):
    """Inclusion-exclusion over which labels never get consumed.

    A path misses label s_a exactly when it never uses the fixed edge
    index carrying s_a, so the count of paths missing a given label set
    only depends on how many horizontal and vertical labels it names.
    """
    p, q = base
    total = 0
    for h in range(q + 2):
        for v in range(p + 2):
            total += ((-1) ** (h + v) * comb(q + 1, h) * comb(p + 1, v)
                      * _reduced_count(base, off, h, v))
    return total


def test_edge_label_examples():
    s00 = LabelScheme(Vertex(0, 0))
    assert edge_label(s00, (3, 5), "H", 1) == 1
    assert edge_label(s00, (3, 5), "V", 1) == 2
    assert edge_label(s00, (0, 1), "H", 2) is None
    s12 = LabelScheme(Vertex(1, 2))
    assert edge_label(s12, (1, 2), "V", 2) == 5
    assert edge_label(s12, (4, 2), "H", 3) == 3
    assert edge_label(s12, (4, 5), "H", 4) is None
    with pytest.raises(ValueError):
        edge_label(s12, (0, 2), "H", 1)
    with pytest.raises(ValueError):
        edge_label(s12, (4, 2), "H", 4)


def test_edge_label_refuses_a_non_int_index_as_validate_does():
    s11 = LabelScheme(Vertex(1, 1))
    for idx in (1.0, 2.5, "1", None):
        with pytest.raises(ValueError, match="is not an integer"):
            edge_label(s11, (1, 1), "H", idx)
    # bool is an int subclass, and validate accepts it too
    assert edge_label(s11, (1, 1), "H", True) == 1
    assert edge_label(s11, (1, 1), "V", True) == 3


def test_decoding_one_label_takes_the_edge_carrying_it():
    # decode of the one-symbol code s_a inverts edge_label at the base.
    for base in [(0, 0), (1, 2), (3, 0), (2, 5)]:
        scheme = LabelScheme(Vertex(*base))
        for a in range(1, scheme.label_count + 1):
            code = EncodingSequence(sum(base), (EncodingSymbol("s", a),))
            (step,) = decode(scheme, code).steps
            assert edge_label(scheme, base, *step) == a
        for a in (0, scheme.label_count + 1):
            with pytest.raises(DecodeError, match=f"no label s_{a} "):
                decode(scheme, EncodingSequence(sum(base), (EncodingSymbol("s", a),)))


def test_a_label_scheme_at_a_large_base_allocates_little():
    # 10**6 + 2 labels: the scheme holds their mask (about 122 KiB) and
    # no step per label.
    tracemalloc.start()
    try:
        scheme = LabelScheme((10**6, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert scheme.label_count == 10**6 + 2
    assert peak < 2**19


def _used_scheme(base):
    # A scheme that has encoded and decoded a few paths first.
    scheme = LabelScheme(base)
    path = parse_path(f"({base[0]},{base[1]}):H1,V2,H3,V1")
    assert decode(scheme, encode(scheme, path)) == path
    return scheme


def test_a_label_scheme_prints_compares_and_hashes_by_its_base_only():
    for scheme in (LabelScheme((1, 2)), _used_scheme((1, 2))):
        assert repr(scheme) == "LabelScheme(base=Vertex(x=1, y=2))"
        assert scheme == LabelScheme(Vertex(1, 2)) == LabelScheme([True, 2])
        assert scheme != LabelScheme((2, 1)) and scheme != Vertex(1, 2)
        assert scheme.__eq__(Vertex(1, 2)) is NotImplemented
        assert hash(scheme) == hash(LabelScheme((1, 2))) == hash((Vertex(1, 2),))
        assert len({scheme, LabelScheme((1, 2)), LabelScheme((0, 3))}) == 2


def test_a_label_scheme_refuses_assignment():
    scheme = _used_scheme((1, 2))
    for name in ("base", "bundles", "full_mask", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(scheme, name, None)
        with pytest.raises(AttributeError, match=f"field '{name}'"):
            delattr(scheme, name)
    assert scheme.base == (1, 2) and scheme.full_mask == 0b11111
    assert scheme.bundles == {"H": (0, 3), "V": (3, 2)}


def test_a_label_scheme_survives_pickle_and_copy():
    scheme = _used_scheme((1, 2))
    copies = [pickle.loads(pickle.dumps(scheme, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies + [copy.copy(scheme), copy.deepcopy(scheme)]:
        assert type(other) is LabelScheme and other == scheme
        assert type(other.base) is Vertex and other.base == scheme.base
        assert other.bundles == scheme.bundles and other.full_mask == scheme.full_mask
        assert repr(other) == repr(scheme) and hash(other) == hash(scheme)
        assert is_good(other, parse_path("(1,2):H1,H2,H3,V1,V2"))[0]


def test_consumed_reads_plain_pairs_and_refuses_unknown_directions():
    # consumed does not validate: it reads any (direction, index) pairs, and
    # a direction other than H or V raises KeyError naming it.
    scheme = LabelScheme((1, 1))
    for steps in ([Step("D", 1)], [("X", 99)], [("H", 1), ("V", 5), ("D", 1)]):
        with pytest.raises(KeyError) as err:
            scheme.consumed(steps)
        assert err.value.args == (steps[-1][0],)
    pairs = [("H", 1), ("V", 2), ("H", 3), ("V", 4)]
    assert scheme.consumed(pairs) == scheme.consumed([Step(*s) for s in pairs]) == 0b1001
    assert scheme.consumed(iter([("V", 1), ("H", 2)])) == 0b0110
    assert scheme.consumed([]) == 0


def test_is_good_examples():
    s00 = LabelScheme(Vertex(0, 0))
    good, consumed = is_good(s00, parse_path("(0,0):H1,V1"))
    assert good and consumed == 0b11
    good, consumed = is_good(s00, parse_path("(0,0):H1,V2"))
    assert not good and consumed == 0b01
    good, consumed = is_good(s00, parse_path("(0,0):"))
    assert not good and consumed == 0


def test_small_good_counts():
    assert count_good_enumeration((0, 0), (1, 1)) == 2
    assert count_good_enumeration((0, 0), (1, 0)) == 0
    assert count_good_dp((0, 0), (1, 1)) == 2


def test_dp_matches_enumeration():
    for p in range(3):
        for q in range(3):
            for s in range(7):
                for i in range(s + 1):
                    off = (i, s - i)
                    assert count_good_dp((p, q), off) \
                        == count_good_enumeration((p, q), off)


def test_dp_matches_inclusion_exclusion_sieve():
    for p in range(3):
        for q in range(3):
            for i in range(7):
                for j in range(7):
                    assert count_good_dp((p, q), (i, j)) \
                        == good_count_by_sieve((p, q), (i, j))


def test_nonemptiness_threshold():
    for p in range(3):
        for q in range(3):
            for i in range(7):
                for j in range(7):
                    positive = count_good_dp((p, q), (i, j)) > 0
                    assert positive == (i >= q + 1 and j >= p + 1)


def test_sieve_table_is_zero_exactly_below_the_threshold():
    # count_good_dp answers 0 below the threshold without summing; the
    # table still sums the sieve there, so its terms must cancel.
    for p in range(4):
        for q in range(4):
            table = good_count_table((p, q), 8, 8)
            for i in range(9):
                for j in range(9):
                    assert (table[i][j] > 0) == (i >= q + 1 and j >= p + 1)


def test_good_count_table_agrees_with_pointwise():
    table = good_count_table((1, 1), 5, 5)
    for i in range(6):
        for j in range(6):
            assert table[i][j] == count_good_dp((1, 1), (i, j))


def test_good_fraction_values():
    assert good_fraction((0, 0), (1, 1)) == Fraction(1, 2)
    assert good_fraction((2, 1), (1, 5)) == 0
    assert good_fraction((1, 1), (50, 50)) > Fraction(88, 100)
    assert good_fraction((1, 1), (50, 50)) < Fraction(89, 100)


def test_bad_path_bound_examples():
    a = closed_form((1, 1), (3, 3))
    g = count_good_dp((1, 1), (3, 3))
    assert (a, g) == (26440, 4080)
    assert bad_path_bound((1, 1), (3, 3)) == 4 * 8422
    assert a - g <= bad_path_bound((1, 1), (3, 3))
    a = closed_form((2, 1), (5, 5))
    g = count_good_dp((2, 1), (5, 5))
    assert a - g <= bad_path_bound((2, 1), (5, 5))


def test_bad_path_bound_window():
    for p in range(1, 4):
        for q in range(1, 4):
            good = good_count_table((p, q), 8, 8)
            for i in range(9):
                for j in range(9):
                    a = closed_form((p, q), (i, j))
                    assert a - good[i][j] <= bad_path_bound((p, q), (i, j))


def test_bad_path_bound_keeps_axis_terms():
    # at q = 0 the horizontal family is counted from a base whose
    # horizontal bundles have one edge fewer
    assert bad_path_bound((1, 0), (2, 2)) == \
        _reduced_count((1, 0), (2, 2), 1, 0) + 2 * closed_form((0, 0), (2, 2))
    assert bad_path_bound((0, 0), (2, 2)) == \
        _reduced_count((0, 0), (2, 2), 1, 0) + _reduced_count((0, 0), (2, 2), 0, 1)
    for p, q in [(0, 0), (0, 1), (0, 3), (1, 0), (3, 0)]:
        good = good_count_table((p, q), 8, 8)
        for i in range(9):
            for j in range(9):
                a = closed_form((p, q), (i, j))
                assert a - good[i][j] <= bad_path_bound((p, q), (i, j))


def test_sieve_at_cells_the_mask_dp_refused_or_took_seconds_on():
    for base, off in [((12, 12), (20, 20)), ((3, 3), (60, 60))]:
        assert count_good_dp(base, off) == good_count_by_sieve(base, off)
    assert good_count_table((3, 3), 60, 60)[60][60] \
        == good_count_by_sieve((3, 3), (60, 60))


def test_dp_budget_errors():
    # (p+2)(q+2)(i+1)(j+1) cells against the default budget of 10**7
    with pytest.raises(BudgetError):
        count_good_dp((0, 0), (2000, 2000))
    with pytest.raises(BudgetError):
        good_count_table((15, 15), 200, 200)
    assert count_good_dp((0, 0), (1000, 1000)) > 0


def test_diagonal_fraction_rises_to_one():
    fractions = [good_fraction((1, 1), (k, k)) for k in (10, 20, 40, 80)]
    assert all(a < b for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] > Fraction(9, 10)
