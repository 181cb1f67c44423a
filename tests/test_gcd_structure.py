from contextlib import suppress
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lhcone import gcd_structure
from lhcone.enumeration import BudgetExceeded
from lhcone.gcd_structure import (
    HorizonTooSmallError,
    failure_threshold_check,
    f_sequence,
    find_n0,
    gcd_profile,
    ratio_table,
)
from lhcone.gorenstein import gorenstein_fail_index
from lhcone.sequences import InvariantViolation, generate_recurrence, recurrence_terms, validate_positivity

# reference 24-row tables, frozen after independent recomputation
U_6_36 = [1, 1, 2, 3, 1, 2, 1, 3, 2, 1, 1, 6] * 2
U_90_M756 = [1, 1, 2, 1, 1, 6] * 4


def positive_pairs():
    return st.tuples(st.integers(1, 12), st.integers(-20, 20)).filter(
        lambda p: p[1] != 0 and validate_positivity(*p)
    )


def test_profile_worked_examples():
    p = gcd_profile(6, 36)
    assert (p.r, p.t, p.sigma, p.gamma, p.beta) == (6, 6, 1, 1, 1)
    p = gcd_profile(90, -756)
    assert (p.r, p.t, p.sigma, p.gamma, p.beta) == (18, 6, 3, 5, -7)
    p = gcd_profile(12, 18)
    assert (p.r, p.t, p.sigma, p.gamma, p.beta) == (6, 3, 2, 2, 1)


def test_profile_rejects_degenerate():
    with pytest.raises(ValueError):
        gcd_profile(0, 4)
    with pytest.raises(ValueError):
        gcd_profile(3, 0)


@given(positive_pairs())
def test_profile_decomposition_identities(pair):
    l, b = pair
    p = gcd_profile(l, b)
    assert p.r == gcd(l, b)
    assert p.r == p.sigma * p.t
    assert l == p.sigma * p.t * p.gamma
    assert b == p.sigma * p.t * p.t * p.beta
    assert gcd(p.gamma, p.beta) == 1
    assert gcd(p.gamma, p.t) == 1
    assert gcd(p.sigma, p.beta) == 1


def test_ratio_tables_match_reference_values():
    assert ratio_table(6, 36, 24).u_values == U_6_36
    assert ratio_table(90, -756, 24).u_values == U_90_M756


def test_ratio_table_rows_and_csv():
    t = ratio_table(6, 36, 3)
    assert t.rows[0] == (1, 1, 1, 1)
    # s = 1, 6, 72, 648: gcd(72, 6) = 6 over 6^1, gcd(648, 72) = 72 over 6^2
    assert t.rows[1] == (2, 6, 6, 1)
    assert t.rows[2] == (3, 72, 36, 2)


@given(positive_pairs(), st.integers(1, 16))
@settings(max_examples=60)
def test_ratio_values_divide_t(pair, n):
    l, b = pair
    p = gcd_profile(l, b)
    for u in ratio_table(l, b, n).u_values:
        assert u >= 1 and p.t % u == 0


def test_f_sequence_reduction():
    assert f_sequence(90, -756, 6) == [1, 15, 204, 2745, 36891, 495720]
    assert f_sequence(6, 36, 5) == [1, 1, 2, 3, 5]


@given(positive_pairs(), st.integers(2, 14))
@settings(max_examples=60)
def test_f_sequence_identities(pair, n):
    l, b = pair
    p = gcd_profile(l, b)
    f = f_sequence(l, b, n)
    s = generate_recurrence(l, b, n)
    for j in range(1, n + 1):
        assert s[j - 1] == p.t ** (j - 1) * f[j - 1]
    # list index j holds f_{j+1}, so the pair (f[j], f[j-1]) is (f_{j+1}, f_j)
    for j in range(1, n):
        assert gcd(f[j], f[j - 1]) == p.sigma ** (j // 2)


def sweep_ratio_rows(l, b, N):
    """ratio_table's rows by their definition: a gcd of each consecutive
    pair, the normalizer recomputed as a power on every row."""
    p = gcd_profile(l, b)
    s = generate_recurrence(l, b, N + 1)
    rows = []
    for n in range(1, N + 1):
        g, norm = gcd(s[n], s[n - 1]), p.t ** (n - 1) * p.sigma ** (n // 2)
        rows.append((n, g, norm, g // norm))
    return rows


def sweep_f_sequence(l, b, n):
    """f_j = s_j/t^{j-1}, with gcd(f_j, f_{j-1}) = sigma^{floor((j-1)/2)}
    checked by a gcd of each consecutive pair through f_{n+1}."""
    p = gcd_profile(l, b)
    f = [s_j // p.t ** j for j, s_j in enumerate(generate_recurrence(l, b, n + 1))]
    if any(gcd(f[j], f[j - 1]) != p.sigma ** (j // 2) for j in range(1, n + 1)):
        raise AssertionError(f"the sweep finds gcd(f_j, f_(j-1)) != sigma^floor((j-1)/2) on ({l}, {b})")
    return f[:n]


def agree_with_the_sweep(l, b, Ns):
    """Whether ratio_table and f_sequence equal the sweep at each N of Ns,
    or raise ValueError where the sweep does on the pair."""
    try:
        rows, f = sweep_ratio_rows(l, b, max(Ns)), sweep_f_sequence(l, b, max(Ns))
    except ValueError:
        rows = f = None
    for N in Ns:
        for fn, want in ((ratio_table, rows), (f_sequence, f)):
            try:
                got = fn(l, b, N)
            except ValueError:
                if want is not None:
                    return False
                continue
            got = list(got.rows) if fn is ratio_table else got
            if want is None or got != want[:N]:
                return False
    return True


def test_lemma_tables_match_the_sweep_on_the_grid():
    # invalid pairs (l <= 0, b = 0, terms that turn nonpositive) included
    wrong = [(l, b) for l in range(-3, 30) for b in range(-60, 60) if not agree_with_the_sweep(l, b, (1, 3, 40))]
    assert wrong == []


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 9, 12, 30, 64])
def test_lemma_tables_match_the_sweep_on_double_roots(m):
    # s_n = n*m^(n-1): g takes nearly every digit of the terms
    assert agree_with_the_sweep(2 * m, -m * m, (300,))


@given(positive_pairs(), st.integers(1, 120))
@settings(max_examples=60)
def test_lemma_tables_match_the_sweep(pair, N):
    assert agree_with_the_sweep(*pair, (N,))


def test_find_n0_known_values():
    assert find_n0(3, 9) == 7
    assert find_n0(2, 1) == 3
    assert find_n0(1, 1) == 4
    assert find_n0(6, 36) == 10
    assert find_n0(90, -756) == 4


def test_find_n0_window_is_clean_and_minimal():
    for l, b in [(3, 9), (2, 1), (5, -5), (6, 36)]:
        horizon = 40
        n0 = find_n0(l, b, horizon)
        p = gcd_profile(l, b)
        bound = p.t * (p.r + abs(b))
        s = generate_recurrence(l, b, n0 + horizon + 1)

        def grows(n):
            return Fraction(s[n - 1]) / (
                Fraction(p.t) ** (n - 2) * p.sigma ** ((n - 1) // 2)
            ) > bound

        assert all(grows(n) for n in range(n0, n0 + horizon + 1))
        if n0 > 1:
            assert not all(grows(n) for n in range(n0 - 1, n0 + horizon))


def oracle_find_n0(l, b, horizon=None):
    """find_n0 by its definition: each growth value a Fraction, the first
    hit found by a scan of its own and every window checked in full."""
    p = gcd_profile(l, b)
    bound = p.t * (p.r + abs(b))

    def grows(n, s_n):
        return Fraction(s_n) / (Fraction(p.t) ** (n - 2) * p.sigma ** ((n - 1) // 2)) > bound

    if horizon is None:
        terms = enumerate(islice(recurrence_terms(l, b), 4096), 1)
        first_hit = next((n for n, s_n in terms if grows(n, s_n)), None)
        if first_hit is None:
            return "no first hit"
        horizon = max(64, 4 * first_hit)
    s = generate_recurrence(l, b, 2 * horizon + 1) if horizon >= 0 else []
    good = [False] + [grows(n, s_n) for n, s_n in enumerate(s, 1)]
    return next((n0 for n0 in range(1, horizon + 1) if all(good[n0 : n0 + horizon + 1])), "no window")


def test_find_n0_matches_oracle_on_grid():
    wrong = []
    for l in range(1, 13):
        for b in range(-40, 41):
            if b == 0 or not validate_positivity(l, b):
                continue
            for horizon in (None, -1, 0, 1, 2, 5, 40):
                try:
                    got = find_n0(l, b, horizon)
                except HorizonTooSmallError as exc:
                    got = "no first hit" if "within 4096 terms" in str(exc) else "no window"
                if got != oracle_find_n0(l, b, horizon):
                    wrong.append((l, b, horizon))
    # double roots b = -l^2/4 reach the bound late: 12 at (12, -36)
    for m in (6, 10, 15):
        if find_n0(2 * m, -m * m) != oracle_find_n0(2 * m, -m * m):
            wrong.append((2 * m, -m * m, None))
    assert wrong == []


@pytest.mark.parametrize("l, b", [(9, 6), (90, -756), (6, 36), (2, -1), (12, -36), (3, 9)])
def test_one_stream_of_f_within_the_charge(monkeypatch, l, b):
    # each function draws one stream, of f, and no more terms than it
    # charges: N + 1 for ratio_table, n + 1 for f_sequence, 2*horizon for
    # find_n0.  The charge is the least node budget that lets it run, and a
    # double root, whose n0 draws no term, charges nothing
    streams = []

    def counted(*params):
        stream = [params, 0]
        streams.append(stream)
        for term in recurrence_terms(*params):
            stream[1] += 1
            yield term

    monkeypatch.setattr(gcd_structure, "recurrence_terms", counted)
    p = gcd_profile(l, b)
    reduced = (l // p.t, b // (p.t * p.t))
    for n in (1, 2, 7, 40):
        for fn, charge in ((ratio_table, n + 1), (f_sequence, n + 1), (find_n0, 2 * n)):
            streams.clear()
            monkeypatch.setenv("LHCONE_BUDGET", str(charge))
            with suppress(HorizonTooSmallError):
                fn(l, b, n)
            monkeypatch.setenv("LHCONE_BUDGET", str(charge - 1))
            if fn is find_n0 and l * l == -4 * b:
                # a double root's n0 is a closed form: no term is drawn
                with suppress(HorizonTooSmallError):
                    fn(l, b, n)
                assert streams == [], n
                continue
            # refused before a term is drawn: the one stream is the run's above
            with pytest.raises(BudgetExceeded, match=rf"^asked for {charge} terms, past the budget of {charge - 1} "):
                fn(l, b, n)
            assert len(streams) == 1 and streams[0][0] == reduced, (fn.__name__, n)
            drawn = streams[0][1]
            assert drawn <= charge if fn is find_n0 else drawn == charge, (fn.__name__, n, drawn)


@pytest.mark.parametrize("fn", [ratio_table, f_sequence, find_n0])
def test_walk_reports_a_wrong_gcd_factor(monkeypatch, fn):
    # (9, 6): t = 1, sigma = 3.  A fifth term three times too large is still
    # a multiple of h_4 = 9, but it makes h_5/h_4 = gcd(6, f_5/9) 3, not 1
    def tripled_fifth(*params):
        for j, term in enumerate(recurrence_terms(*params), start=1):
            yield 3 * term if j == 5 else term

    monkeypatch.setattr(gcd_structure, "recurrence_terms", tripled_fifth)
    with pytest.raises(InvariantViolation, match=r"^gcd\(f_6, f_5\) != sigma\^2$"):
        fn(9, 6, 5)


def test_find_n0_stops_at_the_search_cap(monkeypatch):
    # no pair with distinct roots is known to take 4096 terms to its first
    # hit, so the walk is patched to one that never reaches the bound
    drawn = []

    def flat_walk(l, b, prof):
        while True:
            drawn.append(1)
            yield 1, 1, 1

    monkeypatch.setattr(gcd_structure, "_reduced_walk", flat_walk)
    with pytest.raises(HorizonTooSmallError, match="within 4096 terms"):
        find_n0(3, 9)
    assert len(drawn) == 4096


@pytest.mark.parametrize("m", [1, 2, 3, 4, 11, 64, 65, 89, 90])
def test_find_n0_on_double_roots_is_the_walk_answer(m):
    # the closed form against the walk of f: the bound fails at n0 - 1 and
    # holds on the whole window [n0, 2*n0]
    l, b = 2 * m, -m * m
    n0 = find_n0(l, b)
    assert n0 == (m * (m + 1) + 1 if m % 2 else m * (m + 2))
    p = gcd_profile(l, b)
    walk = gcd_structure._reduced_walk(l, b, p)
    hits = [q > p.r + abs(b) for _, q, _ in islice(walk, 2 * n0)]
    assert not hits[n0 - 2] and all(hits[n0 - 1 :])
    assert find_n0(l, b, n0) == n0
    with pytest.raises(HorizonTooSmallError, match=f"^no window of length {n0} starting"):
        find_n0(l, b, n0 - 1)


def test_find_n0_rejects_degenerate():
    with pytest.raises(ValueError):
        find_n0(0, 1)
    with pytest.raises(ValueError):
        find_n0(3, 0)


def test_find_n0_horizon_too_small():
    # (2,-1) gives s = 1,2,3,...: growth is linear, the bound t(r+|b|) = 2
    # is passed for good only at n = 3, but a zero-length window at n0 = 1
    # cannot be clean, and the scan range [1, horizon] is tiny
    with pytest.raises(HorizonTooSmallError):
        find_n0(2, -1, 1)


def test_threshold_check_applicable_cases():
    v = failure_threshold_check(2, 1)
    assert v.applicable and v.threshold == 5 and v.actual == 4 and v.confirmed
    v = failure_threshold_check(5, -5)
    assert v.applicable and v.threshold == 6 and v.actual == 6 and v.confirmed
    v = failure_threshold_check(4, 6)
    assert v.applicable and v.threshold == 5 and v.actual == 4 and v.confirmed


def test_threshold_check_not_applicable():
    # gcd(3,9) = 3 but gcd(9,9) = 9
    v = failure_threshold_check(3, 9)
    assert not v.applicable
    assert v.threshold is None and v.actual is None and not v.confirmed


def test_threshold_hypothesis_is_t_equal_to_one():
    # gcd(l^2, b) = r*t with r = gcd(l, b) (failure_threshold_check's
    # docstring): the hypothesis gcd(l, b) = gcd(l^2, b) is the profile's t = 1
    pairs = [(l, b) for l in range(-30, 31) for b in range(-900, 901) if l and b]
    assert len(pairs) == 108_000
    assert [(l, b) for l, b in pairs if (gcd(l, b) == gcd(l * l, b)) != (gcd_profile(l, b).t == 1)] == []


def test_threshold_check_rejects_excluded_b():
    with pytest.raises(ValueError):
        failure_threshold_check(3, 0)
    with pytest.raises(ValueError):
        failure_threshold_check(3, -1)
    with pytest.raises(ValueError):
        failure_threshold_check(2, -2)


@given(positive_pairs())
@settings(max_examples=80)
def test_threshold_check_agrees_with_direct_search(pair):
    l, b = pair
    if b in (0, -1):
        return
    v = failure_threshold_check(l, b)
    if not v.applicable:
        assert gcd(l, b) != gcd(l * l, b)
        return
    assert v.actual == gorenstein_fail_index(l, b, v.threshold)
    assert v.actual is not None and v.actual <= v.threshold
