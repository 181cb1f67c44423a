import decimal
import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lhcone import gorenstein
from lhcone.gorenstein import (
    GorensteinResult,
    SingularMatrixError,
    gorenstein_fail_index,
    lecture_hall_gorenstein,
    parse_matrix,
    simple_cone_gorenstein,
    u_generated_point,
)
from lhcone.sequences import (
    _two_term_walk,
    generate_from_u,
    generate_kl,
    generate_recurrence,
    kl_product_exponents,
    recurrence_terms,
    validate_positivity,
)
from test_enumeration import CORPUS


def ell_sequence_point(l, n):
    """Closed-form Gorenstein point (s_1, s_1+s_2, ..., s_{n-1}+s_n) for ell:l:
    the oracle for the walked point and for kl_product_exponents at k = l."""
    s = generate_kl(l, l, n)
    return tuple([s[0]] + [s[i - 1] + s[i] for i in range(1, n)])


def oracle_gorenstein(s):
    """The index recursion with one gcd per step: the reference for the
    gcd-free loop of lecture_hall_gorenstein."""
    c = [1]
    for j in range(2, len(s) + 1):
        num = c[-1] * s[j - 1] + gcd(s[j - 1], s[j - 2])
        q, r = divmod(num, s[j - 2])
        if r:
            return GorensteinResult(None, j, Fraction(num, s[j - 2]))
        c.append(q)
    return GorensteinResult(tuple(c), None, None)


@dataclass(frozen=True)
class TriangularCone:
    """A simple cone cut out by a lower-triangular matrix of rational rows
    with positive diagonal entries: the rational-matrix route to a
    Gorenstein point, the oracle for lecture_hall_gorenstein and
    simple_cone_gorenstein."""

    rows: tuple

    def __post_init__(self):
        n = len(self.rows)
        norm = []
        for i, row in enumerate(self.rows):
            row = tuple(Fraction(x) for x in row)
            if len(row) != n:
                raise ValueError(f"row {i + 1} has {len(row)} entries, expected {n}")
            if row[i] <= 0:
                raise ValueError(f"diagonal entry {i + 1} must be positive, got {row[i]}")
            if any(row[j] != 0 for j in range(i + 1, n)):
                raise ValueError(f"row {i + 1} has nonzero entries above the diagonal")
            norm.append(row)
        object.__setattr__(self, "rows", tuple(norm))


def lecture_hall_cone(s):
    """The triangular inequality matrix of the cone of s."""
    n = len(s)
    rows = []
    for j in range(1, n + 1):
        row = [Fraction(0)] * n
        row[j - 1] = Fraction(1, s[j - 1])
        if j > 1:
            row[j - 2] = Fraction(-1, s[j - 2])
        rows.append(tuple(row))
    return TriangularCone(tuple(rows))


def greedy_interior_point(cone):
    """Coordinatewise-minimal integer point with every row value positive.

    Rows are triangular, so row i constrains only c_1..c_i and the minimal
    admissible c_i is floor(R_i) + 1 with R_i the value that would make the
    row vanish.  On a Gorenstein cone this greedy point is the Gorenstein
    point.
    """
    c = []
    for i, row in enumerate(cone.rows):
        partial = sum((row[j] * c[j] for j in range(i)), Fraction(0))
        c.append(floor(-partial / row[i]) + 1)
    return tuple(c)


def test_recursion_matches_oracle_on_certificate_edges():
    # (3, 4): g = 2 divides s_2 but not s_1; (2, 2, 1): at j = 3, g = 2
    # divides s_2 but not s_3.  Each needs its own divisibility test.
    assert lecture_hall_gorenstein((3, 4)) == oracle_gorenstein((3, 4))
    assert lecture_hall_gorenstein((3, 4)).witness == Fraction(5, 3)
    assert lecture_hall_gorenstein((2, 2, 1)) == oracle_gorenstein((2, 2, 1))
    assert lecture_hall_gorenstein((2, 2, 1)).witness == Fraction(3, 2)


def test_recursion_matches_oracle_on_corpus():
    assert [s for s in CORPUS if lecture_hall_gorenstein(s) != oracle_gorenstein(s)] == []


def test_recursion_matches_oracle_on_recurrences():
    wrong = []
    for l in range(1, 10):
        for b in range(-9, 10):
            if not validate_positivity(l, b):
                continue
            s = generate_recurrence(l, b, 12)
            wrong += [(l, b, n) for n in range(1, 13) if lecture_hall_gorenstein(s[:n]) != oracle_gorenstein(s[:n])]
    assert wrong == []


def test_recursion_matches_oracle_on_short_sequences():
    # every sequence of length <= 3 over 1..8; among them are integral steps
    # with g > 1 and failing steps whose g divides one term but not the other
    seqs = [s for n in (1, 2, 3) for s in itertools.product(range(1, 9), repeat=n)]
    assert [s for s in seqs if lecture_hall_gorenstein(s) != oracle_gorenstein(s)] == []
    steps = []  # (g, s_{j-1}, s_j) of every step reached
    for s in seqs:
        for j in range(2, len(s) + 1):
            point = oracle_gorenstein(s[: j - 1]).point
            if point is None:
                break
            prev, cur = s[j - 2], s[j - 1]
            steps.append((prev - point[-1] * cur % prev, prev, cur))
    assert any(g > 1 and prev % g == 0 and cur % g == 0 for g, prev, cur in steps)
    assert any(cur % g == 0 and prev % g for g, prev, cur in steps)
    assert any(prev % g == 0 and cur % g for g, prev, cur in steps)


@st.composite
def scaled_sequences(draw):
    # a common factor over the whole sequence and a second one from some
    # index on: integral steps with g > 1, and steps where g divides one
    # term of the pair but not the other
    base = draw(st.lists(st.one_of(st.integers(1, 9), st.integers(1, 10**12)), min_size=1, max_size=8))
    common = draw(st.integers(1, 60))
    extra = draw(st.integers(1, 60))
    k = draw(st.integers(0, len(base)))
    return [x * common * (extra if i >= k else 1) for i, x in enumerate(base)]


@given(scaled_sequences())
@settings(max_examples=300, deadline=None)
def test_recursion_matches_oracle(s):
    assert lecture_hall_gorenstein(s) == oracle_gorenstein(s)


@st.composite
def u_generated(draw):
    # s_{i+1} = u_i*s_i - s_{i-1} with s_0 = 1, cut before the first term
    # below 1; u_i = 1 makes the terms fall
    s = [1, draw(st.one_of(st.integers(1, 9), st.integers(1, 10**12)))]
    for u in draw(st.lists(st.integers(1, 6), max_size=30)):
        s.append(u * s[-1] - s[-2])
    return list(itertools.takewhile(lambda x: x >= 1, s[1:]))


@given(u_generated())
@settings(max_examples=300, deadline=None)
def test_u_steps_match_oracle(s):
    assert lecture_hall_gorenstein(s) == oracle_gorenstein(s)


@st.composite
def mixed_steps(draw):
    # each step either a u-step s_j = u*s_{j-1} - s_{j-2} or a free term,
    # the whole sequence scaled by a common factor
    s = [1, draw(st.integers(1, 10**6))]
    for u in draw(st.lists(st.one_of(st.integers(1, 6), st.none()), max_size=20)):
        nxt = None if u is None else u * s[-1] - s[-2]
        s.append(draw(st.integers(1, 10**6)) if nxt is None or nxt < 1 else nxt)
    common = draw(st.integers(1, 12))
    return [x * common for x in s[1:]]


@given(mixed_steps())
@settings(max_examples=300, deadline=None)
def test_mixed_u_and_free_steps_match_oracle(s):
    assert lecture_hall_gorenstein(s) == oracle_gorenstein(s)


@given(
    st.one_of(
        st.builds(lambda k, l: generate_kl(k, l, 80), st.integers(2, 12), st.integers(2, 12)),
        st.builds(lambda k: [(i - 1) * k + 1 for i in range(1, 81)], st.integers(1, 50)),
        st.builds(lambda l: generate_recurrence(l, -1, 80), st.integers(2, 50)),
    ),
    st.integers(1, 80),
)
@settings(max_examples=200, deadline=None)
def test_family_prefixes_match_oracle(s, n):
    assert lecture_hall_gorenstein(s[:n]) == oracle_gorenstein(s[:n])


@pytest.mark.parametrize(
    "s",
    [
        (6, 3, 3),  # j = 3 is a u-step with g_2 = 3 = s_2: remainder 0
        (2, 2, 2, 2),
        (4, 6, 8, 4, 8, 4),  # free and u-steps alternate; g_4 = 4 = s_4
        (1, 3, 9, 6, 3),  # falling u-steps after a gcd of 3
        (1, 4, 10, 6, 2),
        (2, 5, 3, 1, 3, 2, 1),  # u = 3, 1, 2, 6, 1, 2 from s_0 = 1
        (1, 2, 2, 2, 1, 5),  # u, free, u, free, u
        (5, 3, 1, 2),  # fail at 2, before any u-step
        (7, 4, 1, 3, 2),
        (3, 8, 5, 6, 7, 8, 9, 10, 11),  # fails at the free step 4
    ],
)
def test_falling_and_alternating_steps_match_oracle(s):
    assert lecture_hall_gorenstein(s) == oracle_gorenstein(s)


EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation],
)


@given(st.lists(st.integers(2, 10**6), max_size=60), st.sampled_from([1, 2, 10**400 + 1]))
@settings(max_examples=200, deadline=None)
def test_u_point_is_walked_in_its_seeds_number_type(u, s1):
    # the point of the multipliers is the recursion's point on the terms
    # they generate, and the walk from the seeds (1, s1) gives those terms;
    # from Decimal seeds the walk gives the same entries, all Decimal
    # (the CLI's printer chooses the seeds' type: see test_cli)
    s = generate_from_u(u, s1, len(u) + 1)
    point = tuple(_two_term_walk(u, -1, 0, 1))
    assert point == lecture_hall_gorenstein(s).point
    assert list(_two_term_walk(u, -1, 1, s1)) == s
    with decimal.localcontext(EXACT):
        built = (
            (list(_two_term_walk(u, -1, decimal.Decimal(0), decimal.Decimal(1))), point),
            (list(_two_term_walk(u, -1, decimal.Decimal(1), decimal.Decimal(s1))), s),
        )
    for got, want in built:
        assert [str(c) for c in got] == [str(c) for c in want]
        assert all(type(c) is decimal.Decimal for c in got)


def test_ell_sequence_point_at_two_thousand_terms():
    s = generate_kl(3, 3, 2000)
    assert lecture_hall_gorenstein(s).point == ell_sequence_point(3, 2000)
    assert tuple(kl_product_exponents(3, 3, 2000)) == ell_sequence_point(3, 2000)


def test_gorenstein_smallest_cases():
    r = lecture_hall_gorenstein((1,))
    assert r.gorenstein and r.point == (1,)
    r = lecture_hall_gorenstein((1, 2))
    assert r.point == (1, 3)
    r = lecture_hall_gorenstein((2, 1))
    assert r.point == (1, 1)


def test_gorenstein_odd_sequence():
    r = lecture_hall_gorenstein((1, 3, 5, 7))
    assert r.gorenstein
    assert r.point == (1, 4, 7, 10)


def test_fibonacci_fails_at_five():
    r = lecture_hall_gorenstein((1, 1, 2, 3, 5))
    assert not r.gorenstein
    assert r.fails_at == 5
    assert r.witness == Fraction(41, 3)
    # the length-4 prefix is still Gorenstein
    assert lecture_hall_gorenstein((1, 1, 2, 3)).gorenstein


def test_failure_is_monotone_in_length():
    s = generate_recurrence(3, 9, 10)
    seen_failure = False
    for n in range(1, 11):
        r = lecture_hall_gorenstein(s[:n])
        if seen_failure:
            assert not r.gorenstein and r.fails_at == 7
        elif not r.gorenstein:
            seen_failure = True
            assert n == 7
    assert seen_failure


def test_witness_values():
    r = lecture_hall_gorenstein(generate_recurrence(3, 9, 7))
    assert (r.fails_at, r.witness) == (7, Fraction(26491, 2))
    r = lecture_hall_gorenstein(generate_recurrence(5, -5, 6))
    assert (r.fails_at, r.witness) == (6, Fraction(13801, 11))
    r = lecture_hall_gorenstein(generate_recurrence(2, 1, 4))
    assert (r.fails_at, r.witness) == (4, Fraction(97, 5))


def test_rejects_nonpositive_terms():
    with pytest.raises(ValueError):
        lecture_hall_gorenstein((1, 0, 2))
    with pytest.raises(ValueError):
        lecture_hall_gorenstein(())
    with pytest.raises(ValueError):
        # the recursion fails at 3, before the 0; a list is checked up front
        lecture_hall_gorenstein([2, 4, 3, 0])


def test_fail_index_search():
    assert gorenstein_fail_index(3, 9, 64) == 7
    assert gorenstein_fail_index(2, 1, 64) == 4
    assert gorenstein_fail_index(5, -5, 64) == 6
    assert gorenstein_fail_index(2, -1, 50) is None  # 1,2,3,... stays Gorenstein


def test_exact_fail_index_matches_oracle_on_grid():
    # the benchmark's grid: every fail index there is at most 7, so horizon 64
    # sees each one, and the ell-pairs b = -1 never fail
    wrong = []
    for l in range(1, 10):
        for b in range(-9, 10):
            if b and validate_positivity(l, b):
                oracle = oracle_gorenstein(generate_recurrence(l, b, 64)).fails_at
                if not gorenstein_fail_index(l, b) == gorenstein_fail_index(l, b, 64) == oracle:
                    wrong.append((l, b))
    assert wrong == []


@pytest.mark.parametrize("k, index", [(20, 24), (40, 42), (80, 84)])
def test_exact_fail_index_past_any_old_horizon(k, index):
    # the double-root pairs (2m, -m^2), s_j = j*m^(j-1), with m = lcm(1..k)
    m = lcm(*range(1, k + 1))
    assert gorenstein_fail_index(2 * m, -m * m) == index
    assert lecture_hall_gorenstein(generate_recurrence(2 * m, -m * m, index)).fails_at == index


def test_geometric_family_never_fails():
    # b = 0: s_j = l^(j-1) and c_j = l*c_{j-1} + 1, integral for every n
    for l in range(1, 6):
        assert gorenstein_fail_index(l, 0) is None
        assert gorenstein_fail_index(l, 0, 200) is None
        assert lecture_hall_gorenstein(generate_recurrence(l, 0, 200)).gorenstein
    with pytest.raises(ValueError):
        gorenstein_fail_index(0, 0)
    with pytest.raises(ValueError):
        gorenstein_fail_index(1, -1)  # not an ell-pair: 1 - 4 < 0


def test_fail_index_rejects_a_horizon_below_one():
    with pytest.raises(ValueError, match=r"^need horizon >= 1, got 0$"):
        gorenstein_fail_index(3, 9, 0)


def test_fail_index_of_b_zero_and_minus_one_draws_no_term(monkeypatch):
    # the theorem answers b = 0 and b = -1 at any horizon: a horizon of
    # 20,000 on (2, 0) walked 20,000 terms to answer None, and 10**20 never
    # ended.  An invalid pair is still refused first
    monkeypatch.setattr(gorenstein, "_index_recursion", mock.Mock(side_effect=AssertionError("terms drawn")))
    for l, b in ((2, 0), (3, -1)):
        for horizon in (None, 1, 50, 10**20):
            assert gorenstein_fail_index(l, b, horizon) is None
    for horizon in (None, 1, 10**20):
        with pytest.raises(ValueError, match="does not stay positive"):
            gorenstein_fail_index(1, -1, horizon)


def test_fail_index_draws_only_the_terms_it_needs(monkeypatch):
    drawn = []

    def counted(l, b):
        for x in recurrence_terms(l, b):
            drawn.append(x)
            yield x

    monkeypatch.setattr(gorenstein, "recurrence_terms", counted)
    assert gorenstein_fail_index(3, 9, 10**20) == 7
    assert len(drawn) <= 7
    drawn.clear()
    assert gorenstein_fail_index(3, 9) == 7
    assert len(drawn) <= 7


def test_ell_sequence_point():
    # consecutive-sum form, and it must agree with the recursion
    for l in (2, 3, 4):
        for n in range(1, 6):
            s = generate_kl(l, l, n)
            pt = ell_sequence_point(l, n)
            r = lecture_hall_gorenstein(s)
            assert r.gorenstein and r.point == pt
            assert tuple(kl_product_exponents(l, l, n)) == pt


def test_u_generated_point_matches_recursion():
    pt = u_generated_point((4, 1, 2, 5, 1, 2, 5, 1), 9)
    assert pt == (1, 4, 3, 2, 7, 5, 3, 10, 7)
    r = lecture_hall_gorenstein((1, 3, 2, 1, 3, 2, 1, 3, 2))
    assert r.point == pt


def test_triangular_cone_validation():
    with pytest.raises(ValueError):
        TriangularCone(((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))))
    with pytest.raises(ValueError):
        TriangularCone(((Fraction(0),),))
    with pytest.raises(ValueError):
        TriangularCone(((Fraction(1),), (Fraction(1), Fraction(1))))


def test_lecture_hall_cone_rows():
    cone = lecture_hall_cone((1, 3, 5))
    assert cone.rows == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(-1), Fraction(1, 3), Fraction(0)),
        (Fraction(0), Fraction(-1, 3), Fraction(1, 5)),
    )


def test_greedy_interior_point_is_recursion_point():
    for s in [(1,), (1, 2), (1, 3, 5), (1, 2, 3, 4), (1, 3, 5, 7)]:
        cone = lecture_hall_cone(s)
        assert greedy_interior_point(cone) == lecture_hall_gorenstein(s).point
        assert greedy_interior_point(cone) == simple_cone_gorenstein(cone.rows).point


def test_greedy_interior_point_strictly_inside():
    for s in [(1, 1, 2, 3, 5), (2, 3, 1), (1, 9, 3, 4)]:
        cone = lecture_hall_cone(s)
        c = greedy_interior_point(cone)
        for row in cone.rows:
            assert sum(a * x for a, x in zip(row, c)) > 0


def test_simple_cone_agrees_with_recursion():
    for s in [(1,), (1, 2), (2, 1), (1, 3, 5), (1, 1, 2, 3, 5), (1, 9, 3, 4)]:
        rec = lecture_hall_gorenstein(s)
        sim = simple_cone_gorenstein(lecture_hall_cone(s).rows)
        assert sim.gorenstein == rec.gorenstein
        if rec.gorenstein:
            assert sim.point == rec.point
        else:
            assert sim.fails_at == rec.fails_at


def test_simple_cone_scale_invariance():
    # rows 2x >= 0 and -2x + y >= 0 cut the same cone as the (1,2) rows;
    # rescaling a row must not move the Gorenstein point
    r = simple_cone_gorenstein(parse_matrix("2 0\n-2 1\n"))
    assert r.gorenstein and r.point == (1, 3)
    r2 = simple_cone_gorenstein(lecture_hall_cone((1, 2)).rows)
    assert r2.point == (1, 3)


def test_simple_cone_non_triangular():
    # x >= 0, y >= 0, x + y bounded below by nothing new: use a genuinely
    # non-triangular Gorenstein cone, the positive quadrant rotated
    rows = parse_matrix("0 1\n1 -1\n")
    r = simple_cone_gorenstein(rows)
    assert r.gorenstein
    row_values = [sum(a * x for a, x in zip(row, r.point)) for row in rows]
    assert all(v >= 1 for v in row_values)


def test_simple_cone_singular():
    with pytest.raises(SingularMatrixError):
        simple_cone_gorenstein(parse_matrix("1 1\n1 1\n"))
    with pytest.raises(SingularMatrixError):
        simple_cone_gorenstein(parse_matrix("0 0\n0 1\n"))


def oracle_solve(A, rhs):
    """Dense Gaussian elimination over Fraction with first-nonzero pivoting:
    the reference for _solve_exact, which skips the zero entries."""
    n = len(A)
    M = [list(row) + [rhs[i]] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        M[col], M[pivot] = M[pivot], M[col]
        for r in range(col + 1, n):
            if M[r][col]:
                factor = M[r][col] / M[col][col]
                for j in range(col, n + 1):
                    M[r][j] -= factor * M[col][j]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = M[i][n] - sum((M[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        x[i] = acc / M[i][i]
    return x


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def sparse_matrix(draw, n, density):
    # an n x n matrix whose entries are drawn nonzero with about that density
    entry = st.one_of(fractions, st.just(Fraction(0))) if density < 1 else fractions
    return [[draw(entry) if draw(st.floats(0, 1)) < density else Fraction(0) for _ in range(n)] for _ in range(n)]


@st.composite
def sparse_systems(draw):
    # square systems with a share of zero entries, singular ones included
    n = draw(st.integers(1, 7))
    A = sparse_matrix(draw, n, draw(st.sampled_from([0.2, 0.5, 1.0])))
    return A, draw(st.lists(fractions, min_size=n, max_size=n))


def solve_or_singular(A, rhs):
    try:
        return oracle_solve(A, rhs)
    except SingularMatrixError:
        return "singular"


def augmented_rows(A, rhs):
    # the nonzero entries of (A | rhs), integral ones as int, as
    # simple_cone_gorenstein builds them; a zero right-hand side is left out
    return [{j: int(x) if x.denominator == 1 else x for j, x in enumerate([*row, b]) if x} for row, b in zip(A, rhs)]


@given(sparse_systems())
@settings(max_examples=300, deadline=None)
def test_solve_exact_matches_dense_elimination(system):
    A, rhs = system
    try:
        got = gorenstein._solve_exact(augmented_rows(A, rhs))
    except SingularMatrixError:
        got = "singular"
    else:
        assert all(type(x) is Fraction for x in got)
    assert got == solve_or_singular(A, rhs)


def oracle_simple_cone(rows):
    """simple_cone_gorenstein over dense Fraction rows: each row scaled to
    its lattice generator q_i, then oracle_solve on A*c = q."""
    A = [[Fraction(x) for x in row] for row in rows]
    n = len(A)
    if n == 0 or any(len(row) != n for row in A):
        raise ValueError("need a nonempty square matrix")
    q = []
    for i, row in enumerate(A):
        L = lcm(*(x.denominator for x in row))
        g = gcd(*(int(x * L) for x in row))
        if g == 0:
            raise SingularMatrixError(f"row {i + 1} is zero")
        q.append(Fraction(g, L))
    c = oracle_solve(A, q)
    for i, x in enumerate(c):
        if x.denominator != 1:
            return GorensteinResult(None, i + 1, x)
    return GorensteinResult(tuple(int(x) for x in c), None, None)


@st.composite
def cone_matrices(draw):
    # dense, sparse (where elimination meets fill-in), lower-triangular and
    # singular square matrices, entries given as int, Fraction or str, which
    # simple_cone_gorenstein all accepts
    n = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["dense", "sparse", "triangular", "singular"]))
    if shape == "sparse":
        # a nonzero diagonal keeps every row nonzero, so the draw reaches
        # elimination; zero rows are left to the singular shape and to
        # test_simple_cone_keeps_its_errors
        A = sparse_matrix(draw, n, draw(st.sampled_from([0.2, 0.5])))
        for i in range(n):
            A[i][i] = draw(st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)))
    else:
        A = [[draw(fractions) for _ in range(n)] for _ in range(n)]
    if shape == "triangular":
        for i in range(n):
            A[i][i] = draw(st.builds(Fraction, st.integers(1, 9), st.integers(1, 9)))
            A[i][i + 1 :] = [Fraction(0)] * (n - i - 1)
    elif shape == "singular":
        # one row a combination of the others, a zero row when n = 1
        i = draw(st.integers(0, n - 1))
        others = [(draw(fractions), row) for k, row in enumerate(A) if k != i]
        A[i] = [sum((a * row[j] for a, row in others), Fraction(0)) for j in range(n)]
    kinds = st.sampled_from(["int", "Fraction", "str"])

    def given_as(x, kind):
        if kind == "str":
            return str(x)
        return int(x) if kind == "int" and x.denominator == 1 else x

    return [[given_as(x, draw(kinds)) for x in row] for row in A]


def outcome(decide, rows):
    try:
        r = decide(rows)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return r.point, r.fails_at, r.witness, type(r.witness)


@given(cone_matrices())
@settings(max_examples=400, deadline=None)
def test_simple_cone_matches_dense_fraction_oracle(rows):
    assert outcome(simple_cone_gorenstein, rows) == outcome(oracle_simple_cone, rows)


def test_simple_cone_keeps_its_errors():
    with pytest.raises(ValueError, match="^need a nonempty square matrix$"):
        simple_cone_gorenstein([])
    with pytest.raises(ValueError, match="^need a nonempty square matrix$"):
        simple_cone_gorenstein([[0, 0], [1]])
    with pytest.raises(SingularMatrixError, match="^row 2 is zero$"):
        simple_cone_gorenstein([[1, 0], ["0", Fraction(0)]])
    with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
        simple_cone_gorenstein([["1/2", 1], [1, 2]])
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        simple_cone_gorenstein([["x"], [1, 2]])


def test_parse_matrix_fractions_and_blanks():
    rows = parse_matrix("1 0\n\n-1 1/2\n")
    assert rows == ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1, 2)))
    rows = parse_matrix("+3 007/014\n-6/4 +1/3\n")
    assert rows == ((3, Fraction(1, 2)), (Fraction(-3, 2), Fraction(1, 3)))
    assert all(type(x) is Fraction for row in rows for x in row)


def test_parse_matrix_zero_entries():
    rows = parse_matrix("0 -0 0/5\n1 0 0/1\n0 2/4 00\n")
    zeros = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 0), (2, 2)]
    for i, j in zeros:
        assert type(rows[i][j]) is Fraction and rows[i][j] == 0
    assert rows[1][0] == 1 and rows[2][1] == Fraction(1, 2)
    with pytest.raises(ValueError, match="^line 1: bad entry '0/0'$"):
        parse_matrix("0 0/0\n")
    with pytest.raises(ValueError, match="^line 2: bad entry '0x'$"):
        parse_matrix("0 0\n0x 0\n")
    with pytest.raises(ValueError, match="^row 2 has 1 entries, expected 2$"):
        parse_matrix("0 0\n0\n")


@pytest.mark.parametrize(
    "token",
    ["1e2000000", "1E2", "1.5", ".5", "1_000", "1/-2", "--1", "1/2/3", "1/", "/2", "+", "inf", "nan", "\u0663", "1/0"],
)
def test_parse_matrix_takes_only_integers_and_fractions(token):
    # what Fraction(token) also reads, exponents above all, is refused with
    # the entry's line, which counts blank lines
    with pytest.raises(ValueError, match=f"^line 3: bad entry '{re.escape(token)}'$"):
        parse_matrix(f"1 0\n\n-1 {token}\n")


def test_parse_matrix_errors_name_the_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_matrix("1 0\n-1 x\n")
    with pytest.raises(ValueError, match="row 3"):
        parse_matrix("1 0\n-1 1\n7\n")
    with pytest.raises(ValueError):
        parse_matrix("")


@given(st.lists(st.integers(1, 9), min_size=1, max_size=5))
def test_recursion_and_elimination_always_agree(s):
    rec = lecture_hall_gorenstein(s)
    sim = simple_cone_gorenstein(lecture_hall_cone(s).rows)
    assert sim.gorenstein == rec.gorenstein
    if rec.gorenstein:
        assert sim.point == rec.point


@given(st.lists(st.integers(1, 9), min_size=1, max_size=5))
def test_gorenstein_point_lands_on_all_facet_shifts(s):
    r = lecture_hall_gorenstein(s)
    if not r.gorenstein:
        return
    # c satisfies every defining inequality with slack exactly the gcd shift:
    # c_1 = s_1/s_1, c_j*s_{j-1} - c_{j-1}*s_j = gcd(s_j, s_{j-1})
    from math import gcd
    c = r.point
    assert c[0] == 1
    for j in range(1, len(s)):
        assert c[j] * s[j - 1] - c[j - 1] * s[j] == gcd(s[j], s[j - 1])
