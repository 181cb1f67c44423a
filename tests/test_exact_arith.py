import tracemalloc
from itertools import islice
from math import prod

import pytest
from hypothesis import given, strategies as st

from lhcone.enumeration import numerator_H
from lhcone.exact_arith import (
    DensePoly,
    TruncatedSeries,
    is_palindromic,
    is_unimodal,
    product_form_series,
)

coeff_lists = st.lists(st.integers(-9, 9), max_size=8)


def test_trailing_zeros_stripped():
    assert DensePoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert DensePoly([0, 0]).coeffs == ()
    assert DensePoly([]).degree < 0


def test_degree_and_indexing():
    p = DensePoly([3, 0, 5])
    assert p.degree == 2
    assert p[0] == 3 and p[1] == 0 and p[2] == 5
    assert p[99] == 0  # beyond the stored length, not an error
    # iteration yields the coefficients and ends; a bounded prefix first, so
    # that an iteration that never ends fails here instead of hanging
    assert list(islice(iter(DensePoly([1, 2, 0])), 3)) == [1, 2]
    assert 3 not in DensePoly([1, 2])
    s = (1, 3, 5)
    H = numerator_H(s)
    assert sum(H) == prod(s)
    assert DensePoly(H) == H


def test_evaluate_horner():
    p = DensePoly([1, 2, 3])
    assert p(0) == 1
    assert p(1) == 6
    assert p(10) == 321


def test_reverse():
    # the reciprocal polynomial, as is_palindromic reads it: a zero constant
    # term becomes a trailing zero, which DensePoly strips
    assert DensePoly(tuple(reversed(DensePoly([1, 2, 3]).coeffs))).coeffs == (3, 2, 1)
    assert DensePoly(tuple(reversed(DensePoly([0, 1]).coeffs))).coeffs == (1,)
    assert not is_palindromic(DensePoly([0, 1]))


def test_palindromic():
    assert is_palindromic(DensePoly([1, 2, 1]))
    assert is_palindromic(DensePoly([]))  # zero polynomial
    assert not is_palindromic(DensePoly([1, 2]))


def test_unimodal():
    assert is_unimodal(DensePoly([1, 2, 4, 2, 1]))
    assert is_unimodal(DensePoly([1, 1, 1]))
    assert not is_unimodal(DensePoly([1, 3, 2, 3]))


def oracle_unimodal(cs):
    """The index loop is_unimodal used before its scans moved into C."""
    i = 0
    while i + 1 < len(cs) and cs[i] <= cs[i + 1]:
        i += 1
    while i + 1 < len(cs) and cs[i] >= cs[i + 1]:
        i += 1
    return i + 1 >= len(cs)


@given(
    st.one_of(
        st.lists(st.integers(0, 3), max_size=12),  # plateaus, empty and one-element lists
        st.lists(st.integers(-(10**30), 10**30), max_size=6),
        st.builds(  # unimodal by construction
            lambda up, down: sorted(up) + sorted(down, reverse=True),
            st.lists(st.integers(0, 4)),
            st.lists(st.integers(0, 4)),
        ),
    )
)
def test_unimodal_matches_index_loop(c):
    p = DensePoly(c)
    assert is_unimodal(p) == oracle_unimodal(p.coeffs)


def test_unimodal_edges():
    assert is_unimodal(DensePoly([])) and is_unimodal(DensePoly([5]))
    assert is_unimodal(DensePoly([2, 2, 3, 3, 1, 1]))
    assert not is_unimodal(DensePoly([2, 2, 1, 1, 3]))
    assert not is_unimodal(DensePoly([3, 1, 1, 2]))


@given(coeff_lists)
def test_palindromic_iff_equal_to_reverse(c):
    p = DensePoly(c)
    assert is_palindromic(p) == (p.coeffs == tuple(reversed(p.coeffs)))


def test_palindromic_check_copies_nothing():
    # a reversed tuple of 10^6 coefficients costs 8 MB; the check reads the
    # halves in place, and a palindrome makes it read every pair
    half = list(range(1, 500_001))
    p = DensePoly(half + half[::-1])
    del half
    tracemalloc.start()
    try:
        assert is_palindromic(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_series_exact_length():
    s = TruncatedSeries([1, 2], 4)
    assert s.coeffs == (1, 2, 0, 0, 0)
    with pytest.raises(ValueError):
        TruncatedSeries([1, 2, 3], 1)


def test_series_equality_uses_common_prefix():
    assert TruncatedSeries([1, 1, 1], 2) == TruncatedSeries([1, 1, 1, 5], 3)
    assert TruncatedSeries([1, 1], 1) != TruncatedSeries([1, 2], 1)


def test_series_checks_its_arguments_and_degrees():
    with pytest.raises(ValueError, match="^a series needs at least the degree-0 coefficient$"):
        TruncatedSeries([])
    with pytest.raises(ValueError, match="^truncation degree must be >= 0, got -1$"):
        TruncatedSeries([1], -1)
    s = TruncatedSeries([1, 2], 3)
    assert s[3] == 0
    with pytest.raises(IndexError, match="^degree 4 beyond truncation 3$"):
        s[4]
    with pytest.raises(IndexError, match="^degree -1 beyond truncation 3$"):
        s[-1]


def test_values_are_immutable_and_compare_only_to_their_own_type():
    with pytest.raises(AttributeError, match="^DensePoly is immutable$"):
        DensePoly([1]).coeffs = (2,)
    with pytest.raises(AttributeError, match="^TruncatedSeries is immutable$"):
        TruncatedSeries([1]).coeffs = (2,)
    assert not DensePoly([0, 0])
    assert DensePoly([0, 1])
    assert (TruncatedSeries([1]) == 1) is False


def test_product_form_geometric():
    # 1/(1-q) to degree 4
    assert product_form_series([1], 4).coeffs == (1, 1, 1, 1, 1)


def test_product_form_two_factors():
    # 1/((1-q)(1-q^3)): 1,1,1,2,2,2,3
    assert product_form_series([1, 3], 6).coeffs == (1, 1, 1, 2, 2, 2, 3)


def test_product_form_rejects_bad_exponent():
    with pytest.raises(ValueError):
        product_form_series([0], 4)
    with pytest.raises(ValueError):
        product_form_series([1], -1)


@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.integers(0, 20))
def test_product_form_matches_naive_expansion(exps, M):
    got = product_form_series(exps, M)
    want = [1] + [0] * M
    for e in exps:
        # times the geometric series in q^e, term by term
        geo = [1 if d % e == 0 else 0 for d in range(M + 1)]
        want = [sum(want[i] * geo[m - i] for i in range(m + 1)) for m in range(M + 1)]
    assert got.truncation_degree == M and list(got.coeffs) == want
