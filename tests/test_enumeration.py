import itertools
import sys
import tracemalloc
from itertools import accumulate, chain, islice, repeat
from math import prod
from operator import sub
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from lhcone import enumeration
from lhcone.enumeration import (
    BudgetExceeded,
    cross_check_gorenstein,
    denominator_exponents,
    detect_product_form,
    ehrhart_counts,
    h_star,
    node_budget,
    numerator_H,
    product_form,
    weight_series,
)
from lhcone.exact_arith import (
    DensePoly,
    TruncatedSeries,
    _divide_by_factors,
    is_palindromic,
    product_form_series,
)
from lhcone.gorenstein import lecture_hall_gorenstein
from lhcone.sequences import generate_kl, kl_product_exponents, parse_sequence_spec

small_seqs = st.lists(st.integers(1, 5), min_size=1, max_size=4)
# every count past its budget says so in the same words
BUDGET_MESSAGE = r"^enumeration passed \d+ nodes$"


def in_cone(lam, s):
    return all(lam[i] * s[i + 1] <= lam[i + 1] * s[i] for i in range(len(s) - 1))


def brute_weight_counts(s, M):
    """Reference count by filtering the full integer box, no recursion."""
    counts = [0] * (M + 1)
    for lam in itertools.product(range(M + 1), repeat=len(s)):
        if sum(lam) <= M and in_cone(lam, s):
            counts[sum(lam)] += 1
    return counts


def brute_dilate_count(s, t):
    # lambda_i <= s_i * lambda_n / s_n <= s_i * t / s_n, so t * s_i bounds
    # every coordinate whatever the shape of s
    ranges = [range(t * si + 1) for si in s]
    return sum(
        1
        for lam in itertools.product(*ranges)
        if lam[-1] <= t and in_cone(lam, s)
    )


# A lattice walker, one node per lattice point: the independent route that
# the engine's sums over Pi and over the cone are held to.  A node is one
# value v of one coordinate x_i, given values for x_1..x_{i-1}.  Its
# children are the values of x_{i+1}, the ray x_{i+1} >= c_{i+1} =
# ceil(v*s_{i+1}/s_i).  The least grade of any completion of the node is
# w + sum_{j>i} g_j*c_j along the chain of ceilings, where w is the grade of
# x_1..x_i; the first value whose bound passes the limit ends the ray.
def _graded_counts(s, g, limit, max_nodes):
    """counts[k] = #{x in the cone of s : g.x = k} for k = 0..limit.

    g holds nonnegative integers and ends in 1, so each ray of x_n covers
    consecutive grades and enters the difference array as one mark.
    """
    budget = node_budget() if max_nodes is None else max_nodes
    n = len(s)
    delta = [0] * (limit + 1)
    if n == 1:
        # a single unconstrained coordinate: one point of every grade
        delta[0] = 1
        return list(accumulate(delta))
    last = n - 2
    nodes = 0
    # (i, v, w): the ray x[i] >= v still to walk, w the grade of x[:i].  A
    # node pushes the rest of its own ray and then its first child, so the
    # stack holds at most one entry per level.
    stack = [(0, 0, 0)]
    while stack:
        i, v, w = stack.pop()
        si, snext, gi = s[i], s[i + 1], g[i]
        if i == last:
            first = v
            end = v + budget - nodes
            while v < end:
                k = w + gi * v + (v * snext + si - 1) // si
                if k > limit:
                    break
                delta[k] += 1
                v += 1
            else:
                raise BudgetExceeded(f"enumeration passed {budget} nodes")
            nodes += v - first + 1
            continue
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"enumeration passed {budget} nodes")
        w2 = w + gi * v
        c = lo = (v * snext + si - 1) // si
        least = w2 + g[i + 1] * c
        j = i + 2
        while j < n and c and least <= limit:
            sp = s[j - 1]
            c = (c * s[j] + sp - 1) // sp
            least += g[j] * c
            j += 1
        if least <= limit:
            stack.append((i, v + 1, w))
            stack.append((i + 1, lo, w2))
    return list(accumulate(delta))


def mul(a, b, limit):
    """The coefficients of a*b through degree limit; a may be sparse."""
    out = [0] * (limit + 1)
    for i, x in enumerate(a[: limit + 1]):
        if x:
            for j, y in enumerate(b[: limit + 1 - i]):
                out[i + j] += x * y
    return out


def one_minus(e):
    """The coefficients of 1 - q^e."""
    return [1] + [0] * (e - 1) + [-1]


def oracle_numerator(s):
    """The numerator by the walker: the weight series through sum(d_i), each
    (1 - q^{d_i}) cleared."""
    d = denominator_exponents(s)
    f = _graded_counts(s, (1,) * len(s), sum(d), None)
    for e in d:
        f = mul(one_minus(e), f, sum(d))
    return DensePoly(f)


def oracle_hstar(s):
    """The h*-vector by the walker: Ehrhart counts through (n+1)*s_n, the
    (1 - t^{s_n})^{n+1} cleared."""
    n, sn = len(s), s[-1]
    g = (0,) * (n - 1) + (1,)
    f = list(accumulate(_graded_counts(s, g, (n + 1) * sn, None)))
    for _ in range(n + 1):
        f = mul(one_minus(sn), f, (n + 1) * sn)
    return DensePoly(f)


# the corpus of acceptance criterion 6
CORPUS = [c for n in range(1, 5) for c in itertools.product(range(1, 6), repeat=n)] + [
    (1, 3, 5, 7),
    (1, 1, 2, 3, 5),
    (1, 3, 2, 1, 3, 2),
    (1, 9, 3, 4),
    (1, 2, 3, 4),
    (1, 3, 5),
    (1, 3, 18),
    (1, 3, 18, 81),
]


def test_parallelepiped_matches_oracle_on_corpus():
    wrong = [s for s in CORPUS if numerator_H(s) != oracle_numerator(s)]
    wrong += [s for s in CORPUS if h_star(s).coeffs != oracle_hstar(s)]
    assert wrong == []


@given(st.lists(st.integers(1, 7), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_parallelepiped_matches_oracle(s):
    assert numerator_H(s) == oracle_numerator(s)
    assert h_star(s).coeffs == oracle_hstar(s)


@pytest.mark.parametrize("s", [(1, 100, 10**4), (1, 10**4, 1), (1, 10**4, 100)])
def test_parallelepiped_matches_oracle_on_wide_shapes(s):
    # one state per value of each coordinate but the last: a wide middle
    # coordinate makes many states, a wide last one long polynomials
    assert numerator_H(s) == oracle_numerator(s)
    assert h_star(s).coeffs == oracle_hstar(s)


@given(st.lists(st.integers(1, 12), min_size=1, max_size=7).filter(lambda s: prod(s) * s[-1] <= 3 * 10**5))
# prefixes of ell:3, kl:2,3, rec:3,2, onemodk:2 and rec:2,1
@example([1, 3, 8, 21])
@example([1, 3, 5, 12, 19])
@example([1, 3, 11, 39])
@example([1, 3, 5, 7, 9, 11])
@example([1, 2, 5, 12, 29])
@settings(max_examples=60, deadline=None)
def test_hstar_is_the_parallelepiped_of_the_cone_over_its_polytope(s):
    # a second oracle, at sizes the walker does not reach: the cone over
    # {x in the cone of s : x_n <= 1} is {(x, y) : x in the cone, x_n <= y},
    # the cone of s + (s_n,).  So h_star's second packed window equals the
    # one-window sum over that cone's Pi graded by its last coordinate
    n = len(s)
    want = enumeration._lattice((*s, s[-1]), (0,) * n + (1,), None)
    while want[-1] == 0:
        want.pop()
    assert list(h_star(s).coeffs.coeffs) == want


@given(st.lists(st.integers(1, 9), min_size=1, max_size=5), st.integers(0, 40))
@example([1, 3, 5], 4)
@example([9, 1, 9, 1, 9], 40)
@settings(max_examples=80, deadline=None)
def test_ehrhart_counts_are_the_hstar_vector_divided_out(s, T):
    # the Ehrhart series of {x in the cone : x_n <= 1} is Q(x)/(1 - x^{s_n})^{n+1},
    # so i(t) = [x^t] of Q divided by n + 1 factors 1 - x^{s_n}: the cone's
    # count by its last coordinate against the parallelepiped's, two modes
    # of _lattice that share no loop
    Q = h_star(s).coeffs.coeffs
    series = list(islice(chain(Q, repeat(0)), T + 1))
    assert ehrhart_counts(s, T) == _divide_by_factors(series, [s[-1]] * (len(s) + 1))


def s_eulerian(s):
    """E, the h*-polynomial of the lattice polytope {x in the cone : x_n <= s_n},
    two ways.  The cone over it, x_n <= s_n*y, is the cone of s + (1,), so E
    is that cone's Pi graded by its last coordinate.  And the polytope is s_n
    times h_star's, so its Ehrhart series is the s_n-section of
    Q(x)/(1 - x^{s_n})^{n+1}: E(y) = sum_k Q[k*s_n] y^k."""
    Q = h_star(s).coeffs
    section = DensePoly(Q[k * s[-1]] for k in range(len(s) + 1))
    return DensePoly(enumeration._lattice((*s, 1), (0,) * len(s) + (1,), None)), section


@given(st.lists(st.integers(1, 9), min_size=1, max_size=5))
@settings(max_examples=80, deadline=None)
def test_s_eulerian_polynomial_is_a_section_of_the_hstar_vector(s):
    E, section = s_eulerian(s)
    assert E == section


@pytest.mark.parametrize("spec, want", [("onemodk:2", [1, 36, 60, 8]), ("onemodk:3", [1, 81, 171, 27])])
def test_s_eulerian_polynomial_of_one_mod_k_sequences(spec, want):
    # the 1/k-Eulerian polynomials at n = 4
    assert s_eulerian(parse_sequence_spec(spec).realize(4)) == (DensePoly(want),) * 2


def walker_counts(s, g, limit):
    """The walker's counts through the largest of limit, limit // 2, ...
    that it reaches within 300,000 nodes."""
    while True:
        try:
            return _graded_counts(s, g, limit, 300_000)
        except BudgetExceeded:
            limit //= 2


@given(
    st.lists(st.integers(1, 300), min_size=1, max_size=12),
    st.integers(0, 60),
    st.integers(0, 25),
)
# a first coordinate of 2.5e5 values below T = 25, a wide middle one, and a
# long sequence, where the walker reaches only M = 30 and T = 3
@example([10**4, 1], 60, 25)
@example([1, 10**4, 1], 60, 25)
@example([1] * 40, 60, 25)
@settings(max_examples=60, deadline=None)
def test_cone_counts_match_walker(s, M, T):
    n = len(s)
    want = walker_counts(s, (1,) * n, M)
    assert list(weight_series(s, len(want) - 1).coeffs) == want
    want = list(accumulate(walker_counts(s, (0,) * (n - 1) + (1,), T)))
    assert ehrhart_counts(s, len(want) - 1) == want


def _ones_box(n, M):
    # the box of the prefixes' ranges for the weight grading of n ones: x_j
    # is at most M // (n - j + 1)
    return prod(M // k + 1 for k in range(2, n + 1))


SLOT_ORACLES = {
    "numerator_H": (lambda s, _: numerator_H(s), lambda s, _: oracle_numerator(s)),
    "h_star": (lambda s, _: h_star(s).coeffs, lambda s, _: oracle_hstar(s)),
    "weight_series": (
        lambda s, M: list(weight_series(s, M).coeffs),
        lambda s, M: _graded_counts(s, (1,) * len(s), M, None),
    ),
    "ehrhart_counts": (
        ehrhart_counts,
        lambda s, T: list(accumulate(_graded_counts(s, (0,) * (len(s) - 1) + (1,), T, None))),
    ),
}


# (count, s, limit, slot bytes, bound): the bound on every coefficient is
# prod(s) on Pi, also after the h*-vector's second window, whose
# coefficients each sum s_n of Pi's, and the box of the ranges of
# x_1..x_{n-1} on the cone (each x_j at most T*s_j/s_n under the Ehrhart
# grading), and it needs slots of 1, 2, 3, 4, 5, 8 and 9 bytes, so each
# rounding (3 to 4, 5 to 8) and the slot-by-slot read past 8 bytes is met.
# On (127, 1) and (32767, 1) Pi has a coefficient of 126 and 32766, all but
# one bit of its slot.
SLOT_CASES = [
    ("h_star", (127, 1), None, 1, 127),
    ("numerator_H", (1, 3, 8), None, 1, 24),
    ("ehrhart_counts", (1,) * 4, 3, 1, 4**3),
    ("weight_series", (1,) * 4, 6, 1, _ones_box(4, 6)),
    ("h_star", (32767, 1), None, 2, 32767),
    ("numerator_H", (5, 6, 7, 8), None, 2, 1680),
    ("ehrhart_counts", (1,) * 5, 3, 2, 4**4),
    ("weight_series", (1,) * 6, 12, 2, _ones_box(6, 12)),
    ("h_star", (2**15, 1), None, 3, 2**15),
    ("ehrhart_counts", (2**16, 1), 1, 3, 2**16 + 1),
    ("ehrhart_counts", (1,) * 9, 3, 3, 4**8),
    ("weight_series", (1,) * 10, 20, 3, _ones_box(10, 20)),
    ("ehrhart_counts", (1,) * 13, 3, 4, 4**12),
    ("weight_series", (1,) * 14, 24, 4, _ones_box(14, 24)),
    ("ehrhart_counts", (1,) * 17, 3, 5, 4**16),
    ("weight_series", (1,) * 20, 30, 5, _ones_box(20, 30)),
    ("ehrhart_counts", (1,) * 29, 3, 8, 4**28),
    ("ehrhart_counts", (1,) * 33, 3, 9, 4**32),
    ("weight_series", (1,) * 36, 44, 9, _ones_box(36, 44)),
]


@pytest.mark.parametrize(
    "count, s, limit, width, bound",
    SLOT_CASES,
    ids=[f"{c[0]}-n{len(c[1])}-{c[3]}B" for c in SLOT_CASES],
)
def test_every_slot_width_matches_the_oracles(count, s, limit, width, bound):
    assert (bound.bit_length() + 8) // 8 == width
    run, oracle = SLOT_ORACLES[count]
    assert run(s, limit) == oracle(s, limit)


@pytest.mark.parametrize("s", [(2**9,) * 6 + (2**8, 1), (1000,) * 7 + (1,)])
def test_a_full_top_byte_survives_the_read(s):
    # x_n takes few values on Pi, so the h*-vector has coefficients near
    # prod(s)/n: up to 61 bits in the 8-byte slots of the first shape and
    # 69 in the 9-byte slots of the second, past the walker's reach.  A
    # dropped or misread byte breaks the value s_n*prod(s) at 1, and the
    # index recursion decides the symmetry on its own
    Q = h_star(s).coeffs
    assert max(Q.coeffs).bit_length() > 8 * ((prod(s).bit_length() + 8) // 8) - 8
    assert sum(Q.coeffs) == prod(s)
    assert is_palindromic(Q) == lecture_hall_gorenstein(s).gorenstein


def _window_sum(coeffs, w):
    """The coefficients of coeffs * (1 + q + ... + q^{w-1}), as one list."""
    pre = [0, *accumulate(coeffs)]
    # entry k is pre[min(k + 1, L)] - pre[max(k + 1 - w, 0)], L = len(coeffs)
    upper = chain(islice(pre, 1, None), repeat(pre[-1], w - 1))
    lower = chain(repeat(0, w), islice(pre, 1, len(pre) - 1))
    return list(map(sub, upper, lower))


def listed_windows(s, g, windows):
    """The engine's sum over Pi unpacked before the last coordinate's window,
    then that window and the rest applied as lists."""
    coeffs = enumeration._lattice(s, g, None, 0, 0)
    for _ in range(windows):
        coeffs = _window_sum(coeffs, s[-1])
    return coeffs


@given(st.lists(st.integers(1, 40), min_size=1, max_size=5))
@example([1000, 1000, 1000])
# h*-coefficients that reach prod(s), 7 of the 8 bits and 15 of the 16 bits
# of their slots
@example([1, 127])
@example([1, 32767])
@example([1, 3, 13, 51, 205])
@settings(max_examples=60, deadline=None)
def test_packed_windows_match_list_windows(s):
    n = len(s)
    weight, last = (1,) * n, (0,) * (n - 1) + (1,)
    want = listed_windows(s, weight, 1), listed_windows(s, last, 2)
    # the one-cast read, then the per-slot read that a big-endian host takes
    # at every width
    assert (list(numerator_H(s).coeffs), list(h_star(s).coeffs.coeffs)) == want
    with mock.patch.object(enumeration, "sys", SimpleNamespace(byteorder="big")):
        assert (list(numerator_H(s).coeffs), list(h_star(s).coeffs.coeffs)) == want


def _lattice_in_every_mode(s, limit):
    n = len(s)
    weight, last = (1,) * n, (0,) * (n - 1) + (1,)
    pi = [enumeration._lattice(s, weight, None)]
    pi += [enumeration._lattice(s, last, None, 0, windows) for windows in (0, 1, 2)]
    return pi + [enumeration._lattice(s, g, limit) for g in (weight, last)]


@given(st.lists(st.integers(1, 12), min_size=1, max_size=4), st.integers(0, 40))
# h_star's last-layer states repeat their degrees
@example([5, 3], 20)
@example([1, 40, 7], 20)
# degrees that jump past the span, in the cone and in Pi
@example([1, 200], 300)
@example([3, 1000], 300)
@settings(max_examples=40, deadline=None)
def test_lattice_does_not_depend_on_the_chunk_span(s, limit):
    # span 0 gives every degree a chunk of its own; 10**9 sums the whole
    # last layer into one chunk
    want = _lattice_in_every_mode(s, limit)
    for span in (0, 1, 3, 10**9):
        with mock.patch.object(enumeration, "_CHUNK_SLOTS", span):
            assert _lattice_in_every_mode(s, limit) == want, span


@pytest.mark.skipif(sys.byteorder != "little", reason="slots are read one at a time")
def test_hstar_keeps_the_slots_of_pi():
    # prod(s) = 10^9 needs 31 bits, a 4-byte slot, for the numerator and for
    # the h*-vector: each h*-coefficient sums s_n of Pi's coefficients, so
    # the second window needs no wider slot although the h*-vector sums to
    # s_n*prod(s) = 10^12
    widths = []

    class Recording(dict):
        def __getitem__(self, B):
            widths.append(B)
            return super().__getitem__(B)

    s = (1000, 1000, 1000)
    with mock.patch.object(enumeration, "_SLOT_FORMATS", Recording(enumeration._SLOT_FORMATS)):
        numerator_H(s)
        h_star(s)
    assert widths == [4, 4]
    assert max(h_star((1, 32767)).coeffs.coeffs) == 32767


def test_hstar_memory_peak():
    # the windows run on the packed answer, so no list but the answer is
    # built: the peak is 12.5 MiB, against 20.8 MiB when each window ran as
    # a list pass
    tracemalloc.start()
    try:
        h_star((1, 100, 100000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 18 << 20


def test_numerator_memory_peak():
    # the last layer's states are summed into chunks as they are made, never
    # kept: the peak is 1.1 MiB, against 7.7 MiB when the last layer was
    # stored for a later pass
    tracemalloc.start()
    try:
        numerator_H(generate_kl(2, 5, 8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def test_weight_series_memory_peak():
    # each stored state of the cone starts at its least degree, x_j under the
    # weight grading: the peak is 0.3 MiB, against 8.3 MiB when each state of
    # x_2's 4,000 was stored from degree 0
    tracemalloc.start()
    try:
        weight_series((1, 1000, 1000, 1), 4000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_weight_series_one_dimensional():
    assert weight_series((1,), 4).coeffs == (1, 1, 1, 1, 1)


def test_weight_series_known_product():
    assert weight_series((1, 2), 6).coeffs == (1, 1, 1, 2, 2, 2, 3)
    assert weight_series((1, 2), 6) == product_form_series([1, 3], 6)


def test_weight_series_counts_both_witnesses():
    # (0,3,1,2) and (0,2,1,3) both satisfy the ratio chain for (1,9,3,4);
    # weight 6 holds seven points in total
    f = weight_series((1, 9, 3, 4), 6)
    assert f.coeffs[6] == 7
    assert list(f.coeffs) == brute_weight_counts((1, 9, 3, 4), 6)


@given(small_seqs, st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_weight_series_matches_brute_force(s, M):
    assert list(weight_series(s, M).coeffs) == brute_weight_counts(s, M)


def test_weight_series_budget(monkeypatch):
    monkeypatch.setenv("LHCONE_BUDGET", "10")
    assert node_budget() == 10
    with pytest.raises(BudgetExceeded):
        weight_series((1, 2, 3), 30)
    monkeypatch.delenv("LHCONE_BUDGET")
    assert node_budget() == 50_000_000


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_node_budget_rejects_invalid_values(monkeypatch, raw):
    monkeypatch.setenv("LHCONE_BUDGET", raw)
    with pytest.raises(ValueError, match="LHCONE_BUDGET"):
        node_budget()


def test_long_sequence_needs_no_recursion():
    # the engine loops over the coordinates: 1500 of them are far past
    # Python's recursion limit
    s = [1] * 1500
    assert list(weight_series(s, 0).coeffs) == [1]
    assert ehrhart_counts(s, 0) == [1]


def test_ehrhart_small_values():
    assert ehrhart_counts((1,), 3) == [1, 2, 3, 4]
    assert ehrhart_counts((1, 3, 5), 0) == [1]
    assert ehrhart_counts((1, 2), 1) == [1, 2]


def test_ehrhart_monotone_nondecreasing():
    for s in [(1, 3, 5), (2, 3, 1), (1, 9, 3, 4)]:
        counts = ehrhart_counts(s, 12)
        assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_ehrhart_brute_force_cross_check():
    for s in [(1, 2), (2, 1), (1, 3, 2), (3, 1, 2)]:
        got = ehrhart_counts(s, 4)
        assert got == [brute_dilate_count(s, t) for t in range(5)]


@given(small_seqs, st.integers(0, 8))
@settings(max_examples=30, deadline=None)
def test_ehrhart_matches_brute_force(s, T):
    assert ehrhart_counts(s, T) == [brute_dilate_count(s, t) for t in range(T + 1)]


def test_denominator_exponents():
    assert denominator_exponents((1, 3, 5, 7)) == [16, 15, 12, 7]
    assert denominator_exponents((1,)) == [1]


@given(st.lists(st.integers(1, 10**30), min_size=1, max_size=40))
def test_denominator_exponents_are_tail_sums(s):
    assert denominator_exponents(s) == [sum(s[i:]) for i in range(len(s))]


def test_numerator_identity_value():
    H = numerator_H((1, 3, 5, 7))
    assert H(1) == 105
    assert is_palindromic(H)
    assert H.degree == 28


def test_numerator_trivial():
    assert numerator_H((1,)).coeffs == (1,)


def test_numerator_staircase_cancels_to_odd_product():
    # s = (1,2,...,n): the weight series is the odd-exponent product
    for n in range(1, 6):
        s = tuple(range(1, n + 1))
        d = denominator_exponents(s)
        M = sum(d)
        lhs = weight_series(s, M)
        assert lhs == product_form_series([2 * i - 1 for i in range(1, n + 1)], M)


@given(small_seqs)
@settings(max_examples=30, deadline=None)
def test_numerator_reconstructs_weight_series(s):
    H = numerator_H(s)
    d = denominator_exponents(s)
    M = sum(d)
    rebuilt = mul(H.coeffs, product_form_series(d, M).coeffs, M)
    assert rebuilt == list(weight_series(s, M).coeffs)


def test_detect_product_form_staircase():
    f = weight_series((1, 2, 3, 4), 64)
    assert detect_product_form(f, 4) == [1, 3, 5, 7]


def test_detect_product_form_kl():
    s = generate_kl(3, 3, 3)
    assert s == [1, 3, 8]
    f = weight_series(s, 64)
    assert detect_product_form(f, 3) == [1, 4, 11]


def test_detect_product_form_negative():
    f = weight_series((1, 3, 5, 7), 100)
    assert detect_product_form(f, 4) is None


def test_detect_product_form_square():
    f = weight_series((1, 2), 6).coeffs
    assert detect_product_form(TruncatedSeries(mul(f, f, 6)), 4) == [1, 1, 3, 3]


def test_detect_product_form_requires_unit():
    with pytest.raises(ValueError):
        detect_product_form(TruncatedSeries([2, 1], 4), 1)


def reference_greedy(f, n):
    """The greedy with a sign test on each exponent's coefficient, slice
    copies and a final sort: the oracle for `detect_product_form`."""
    M = f.truncation_degree
    c = list(f.coeffs)
    exponents = []
    e = 1
    for _ in range(n):
        e = next((m for m in range(e, M + 1) if c[m] != 0), None)
        if e is None or c[e] < 0:
            return None
        tail = [a - b for a, b in zip(c[e:], c)]
        if min(tail) < 0:
            return None
        c[e:] = tail
        exponents.append(e)
    if any(c[1:]):
        return None
    return sorted(exponents)


@st.composite
def unit_series(draw):
    """A series starting with 1 and a factor count: random entries, some
    negative, or a product of 1/(1 - q^e) with one entry perturbed, read
    with about as many factors as it has."""
    if draw(st.booleans()):
        coeffs = [1] + draw(st.lists(st.integers(-3, 3), max_size=30))
        return TruncatedSeries(coeffs), draw(st.integers(0, 6))
    exponents = draw(st.lists(st.integers(1, 9), max_size=5))
    coeffs = list(product_form_series(exponents, draw(st.integers(0, 40))).coeffs)
    k = draw(st.integers(0, len(coeffs) - 1))
    if k:
        coeffs[k] += draw(st.integers(-2, 2))
    return TruncatedSeries(coeffs), max(0, len(exponents) + draw(st.integers(-1, 1)))


@given(unit_series())
@example((TruncatedSeries([1]), 0))
@example((TruncatedSeries([1]), 1))
@example((TruncatedSeries([1, 0, 0]), 0))
@example((TruncatedSeries([1, -1, 0, 1]), 2))
@settings(max_examples=400, deadline=None)
def test_detect_product_form_matches_reference_greedy(case):
    f, n = case
    assert detect_product_form(f, n) == reference_greedy(f, n)


def oracle_product_form(s):
    """The product form by the walker: the greedy on its weight series
    through sum(d_i), kept only when H * prod(1 - q^{e_i}) equals
    prod(1 - q^{d_i}) as polynomials, H the walker's numerator."""
    d = denominator_exponents(s)
    f = TruncatedSeries(_graded_counts(s, (1,) * len(s), sum(d), None))
    exponents = detect_product_form(f, len(s))
    if exponents is None:
        return None
    lhs = list(oracle_numerator(s).coeffs)
    for e in exponents:
        lhs = mul(one_minus(e), lhs, len(lhs) + e - 1)
    rhs = [1]
    for e in d:
        rhs = mul(one_minus(e), rhs, len(rhs) + e - 1)
    return exponents if DensePoly(lhs) == DensePoly(rhs) else None


def test_product_form_matches_oracle_on_corpus():
    got = {s: product_form(s) for s in CORPUS}
    assert got == {s: oracle_product_form(s) for s in CORPUS}
    # both verdicts occur: the staircase has a product form, (1,3,5,7) not
    assert got[(1, 2, 3, 4)] == [1, 3, 5, 7] and got[(1, 3, 5, 7)] is None


def test_product_form_memory_peak():
    # the greedy factors the division's own list, and the numerator is
    # dropped once its coefficients are in it: the peak is 5.1 MiB, against
    # 8.5 MiB with a tuple copy of the series and the numerator held to the end
    tracemalloc.start()
    try:
        assert product_form((1, 200, 40000)) == [1, 201, 40201]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6.5 * (1 << 20)


def test_product_form_needs_the_degree_identity(monkeypatch):
    # (1 - q^2 + q^3)/((1 - q)(1 - q^2)) agrees with 1/((1 - q)(1 - q^3))
    # through D = 3 only: the greedy finds [1, 3] there, and
    # deg H + sum(e_i) = 7 != D rejects it
    monkeypatch.setattr(enumeration, "numerator_H", lambda s: DensePoly([1, 0, -1, 1]))
    assert product_form((1, 1)) is None


@pytest.mark.parametrize(
    "k, l, n",
    # kl:2,3 n=4 at --m 16 once gave no product form; the other four have
    # an exponent above 64, where a series cut at 64 found none
    [(2, 3, 4), (4, 4, 4), (4, 4, 5), (5, 5, 4), (3, 3, 5), (2, 3, 8)],
)
def test_product_form_of_kl_families(k, l, n):
    assert product_form(generate_kl(k, l, n)) == kl_product_exponents(k, l, n)


def test_hstar_known_vector():
    hs = h_star((1, 3, 5))
    assert list(hs.coeffs.coeffs) == [1, 2, 4, 6, 9, 10, 11, 10, 9, 6, 4, 2, 1]
    assert hs.coeffs(1) == 75
    assert hs.symmetric and hs.unimodal
    assert hs.denominator_exponent == 5 and hs.power == 4


def test_hstar_trivial():
    hs = h_star((1,))
    assert list(hs.coeffs.coeffs) == [1]


def test_hstar_small_cases():
    assert list(h_star((2,)).coeffs.coeffs) == [1, 2, 1]
    assert list(h_star((1, 2)).coeffs.coeffs) == [1, 2, 1]
    assert list(h_star((2, 1)).coeffs.coeffs) == [1, 1]
    assert list(h_star((5, 1)).coeffs.coeffs) == [1, 4]


@given(small_seqs)
@settings(max_examples=20, deadline=None)
def test_hstar_value_identity(s):
    hs = h_star(s)
    prod = 1
    for x in s:
        prod *= x
    assert hs.coeffs(1) == s[-1] * prod
    assert all(c >= 1 for c in hs.coeffs.coeffs)


def test_cross_check_agreement():
    r = cross_check_gorenstein((1, 3, 5, 7))
    assert (r.recursion_gorenstein, r.numerator_palindromic, r.hstar_palindromic) == (
        True,
        True,
        True,
    )
    assert r.agree
    r = cross_check_gorenstein((1, 1, 2, 3, 5))
    assert (r.recursion_gorenstein, r.numerator_palindromic, r.hstar_palindromic) == (
        False,
        False,
        False,
    )
    assert r.agree
    r = cross_check_gorenstein((1, 3, 2, 1, 3, 2))
    assert r.recursion_gorenstein and r.agree


@pytest.mark.parametrize(
    "count",
    [
        # x_1 takes about 2e6 values below T = 2
        lambda: ehrhart_counts((10**6, 1), 2),
        # x_1 takes about 3e8 values below T = 3
        lambda: ehrhart_counts((10**8, 1, 1), 3),
        # the answer alone has 1e20 + 1 entries
        lambda: weight_series((1, 2), 10**20),
        lambda: ehrhart_counts((1, 2), 10**20),
    ],
)
def test_budget_stops_a_long_ray(count, monkeypatch):
    # the range of every coordinate and the answer's length are charged in
    # closed form before any work
    monkeypatch.setenv("LHCONE_BUDGET", "100")
    with pytest.raises(BudgetExceeded, match=BUDGET_MESSAGE):
        count()


def _capped(monkeypatch, run, budget):
    """run() under LHCONE_BUDGET = budget, or under the default cap at None."""
    if budget is None:
        monkeypatch.delenv("LHCONE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("LHCONE_BUDGET", str(budget))
    return run()


def _admits(monkeypatch, run, budget):
    try:
        _capped(monkeypatch, run, budget)
    except BudgetExceeded:
        return False
    return True


def test_budget_is_exact_on_both_loops(monkeypatch):
    # under both gradings of the cone a budget of 1 stops the count, and the
    # least budget that admits a count also admits every larger one and
    # gives the unbudgeted answer
    for count in (
        lambda: weight_series((1, 3, 8), 12).coeffs,
        lambda: ehrhart_counts((2, 5, 3), 6),
    ):
        with pytest.raises(BudgetExceeded, match=BUDGET_MESSAGE):
            _capped(monkeypatch, count, 1)
        need = next(b for b in range(1, 10_000) if _admits(monkeypatch, count, b))
        assert not any(_admits(monkeypatch, count, b) for b in range(1, need))
        assert (
            _capped(monkeypatch, count, need)
            == _capped(monkeypatch, count, need + 7)
            == _capped(monkeypatch, count, None)
        )


def test_parallelepiped_budget_is_exact(monkeypatch):
    # the engine charges its output and every packed slot: a small budget
    # stops it, and the least admitting one admits every larger one and
    # gives the unbudgeted answer
    for run in (
        lambda: numerator_H((1, 3, 8)),
        lambda: h_star((2, 5, 3)),
        lambda: product_form((1, 3, 8)),
        lambda: product_form((2, 5, 3)),
    ):
        with pytest.raises(BudgetExceeded, match=BUDGET_MESSAGE):
            _capped(monkeypatch, run, 1)
        need = next(b for b in range(1, 10_000) if _admits(monkeypatch, run, b))
        assert not any(_admits(monkeypatch, run, b) for b in range(1, need))
        assert (
            _capped(monkeypatch, run, need)
            == _capped(monkeypatch, run, need + 7)
            == _capped(monkeypatch, run, None)
        )


@pytest.mark.parametrize(
    "run, need",
    [
        (lambda: numerator_H((3, 20, 50, 30)), 2200),
        (lambda: numerator_H((10, 100, 1000, 5000)), 230552),
        (lambda: h_star((3, 20, 50, 30)), 430),
        (lambda: weight_series((2, 3, 5, 7, 11, 13, 17, 19), 40), 471),
    ],
)
def test_least_admitting_budget_counts_slots_not_bytes(run, need, monkeypatch):
    # a node is a slot whatever its width: these bounds need 3, 5, 3 and 3
    # bytes a slot, held in slots of 4 and 8, and the least budget that
    # admits each count is the one that 3- and 5-byte slots had
    assert not _admits(monkeypatch, run, need - 1)
    assert _admits(monkeypatch, run, need)


def test_product_form_charges_its_division(monkeypatch):
    # the division's n*(D+1) nodes, D = 31 here, are charged before any
    # work under the cap of numerator_H, which needs fewer
    monkeypatch.setenv("LHCONE_BUDGET", "95")
    with pytest.raises(BudgetExceeded, match=BUDGET_MESSAGE):
        product_form((1, 3, 8))
    monkeypatch.setenv("LHCONE_BUDGET", "96")
    assert product_form((1, 3, 8)) == [1, 4, 11]


def test_cross_check_budget(monkeypatch):
    # no degree guard: generating functions of degree in the thousands are
    # cheap from the parallelepiped, and the node budget bounds the work
    assert cross_check_gorenstein(generate_kl(3, 3, 7)).agree
    assert cross_check_gorenstein((1, 3, 18, 81, 405, 1944)).agree
    monkeypatch.setenv("LHCONE_BUDGET", "1000")
    with pytest.raises(BudgetExceeded):
        cross_check_gorenstein(generate_kl(3, 3, 7))


@given(small_seqs)
@settings(max_examples=25, deadline=None)
def test_cross_check_never_disagrees(s):
    assert cross_check_gorenstein(s).agree


@given(small_seqs)
@settings(max_examples=25, deadline=None)
def test_palindromic_numerator_iff_gorenstein(s):
    assert is_palindromic(numerator_H(s)) == lecture_hall_gorenstein(s).gorenstein
