import decimal
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from lhcone import cli
from lhcone.sequences import (
    CoprimalityError,
    SequenceSpec,
    SpecParseError,
    _two_term_walk,
    _u_steps,
    generate_from_u,
    generate_kl,
    generate_recurrence,
    kl_product_exponents,
    parse_sequence_spec,
    recognize_u_generated,
    recurrence_terms,
    validate_positivity,
)
from itertools import islice
from math import gcd


# reference definitions of the families whose terms lhcone walks from their
# multipliers: each is written here without that walk


def kl_oracle(k, l, n):
    """a_1..a_n of a_0 = 0, a_1 = 1, a_{2i} = l*a_{2i-1} - a_{2i-2},
    a_{2i+1} = k*a_{2i} - a_{2i-1}."""
    a = [0, 1]
    for i in range(2, n + 1):
        a.append((l if i % 2 == 0 else k) * a[-1] - a[-2])
    return a[1:]


def one_mod_k(k, n):
    """1, k+1, 2k+1, ..., the arithmetic progression that is 1 mod k."""
    return [(i - 1) * k + 1 for i in range(1, n + 1)]


def family_oracle(text, n):
    """The terms s_1..s_n of a family spec whose kind fixes its multipliers
    (rec:l,b only with b = -1)."""
    spec = parse_sequence_spec(text)
    return {
        "kl": lambda k, l: kl_oracle(k, l, n),
        "ell": lambda l: kl_oracle(l, l, n),
        "one_mod_k": lambda k: one_mod_k(k, n),
        "recurrence": lambda l, b: generate_recurrence(l, b, n),
    }[spec.kind](*spec.params)


def test_positivity_predicate():
    assert validate_positivity(3, 9)
    assert validate_positivity(5, -5)
    assert validate_positivity(2, -1)
    assert validate_positivity(1, 0)
    assert not validate_positivity(0, 3)
    assert not validate_positivity(2, -2)  # discriminant 4 - 8 < 0


def test_recurrence_terms():
    assert generate_recurrence(3, 9, 5) == [1, 3, 18, 81, 405]
    assert generate_recurrence(1, 1, 6) == [1, 1, 2, 3, 5, 8]
    assert generate_recurrence(2, 0, 4) == [1, 2, 4, 8]


def test_recurrence_rejects_nonpositive():
    with pytest.raises(ValueError):
        generate_recurrence(2, -2, 5)
    with pytest.raises(ValueError):
        generate_recurrence(3, 9, 0)
    with pytest.raises(ValueError):
        recurrence_terms(2, -2)  # checked before any term is drawn


def test_recurrence_stream_has_no_end():
    terms = recurrence_terms(3, 9)
    assert list(islice(terms, 5)) == generate_recurrence(3, 9, 5)
    assert next(islice(terms, 994, None)) == generate_recurrence(3, 9, 1000)[-1]


@given(
    st.lists(st.integers(-10**6, 10**6), max_size=40),
    st.one_of(st.just(-1), st.integers(-50, 50)),
    st.integers(-10**30, 10**30),
    st.integers(-10**30, 10**30),
)
def test_two_term_walk_is_the_plain_recurrence(p, q, first, second):
    # both loops of the walk, the u-step loop (q = -1) and the general one,
    # give x_{i+1} = p_i*x_i + q*x_{i-1} exactly: in ints from int seeds,
    # and in Decimal from Decimal seeds under the CLI's exact context
    want = [first, second]
    for pi in p:
        want.append(pi * want[-1] + q * want[-2])
    want = want[1:]
    got = list(_two_term_walk(iter(p), q, first, second))
    assert got == want and all(type(x) is int for x in got)
    with decimal.localcontext(cli._EXACT):
        got = list(_two_term_walk(p, q, decimal.Decimal(first), decimal.Decimal(second)))
    assert got == want and all(type(x) is decimal.Decimal for x in got)


@given(st.integers(1, 9), st.integers(-6, 9), st.integers(1, 12))
def test_recurrence_stays_positive(l, b, n):
    if not validate_positivity(l, b):
        return
    assert all(x >= 1 for x in generate_recurrence(l, b, n))


def test_kl_terms():
    assert generate_kl(2, 3, 8) == [1, 3, 5, 12, 19, 45, 71, 168]
    assert generate_kl(3, 3, 5) == [1, 3, 8, 21, 55]
    with pytest.raises(ValueError):
        generate_kl(1, 3, 4)


def test_kl_product_exponents():
    assert kl_product_exponents(2, 3, 4) == [1, 4, 7, 17]
    # k = l collapses to consecutive sums a_i + a_{i-1}
    a = [0] + generate_kl(3, 3, 5)
    assert kl_product_exponents(3, 3, 5) == [a[i] + a[i - 1] for i in range(1, 6)]


def kl_exponents_oracle(k, l, n):
    """The (k, l) exponents by their index formula on two generated
    sequences, a the (k, l)- and b the (l, k)-sequence: (a_i + b_{i-1}) for
    n even, (b_i + a_{i-1}) for n odd.  The oracle for the walk."""
    a = [0] + generate_kl(k, l, n)
    b = [0] + generate_kl(l, k, n)
    if n % 2 == 0:
        return [a[i] + b[i - 1] for i in range(1, n + 1)]
    return [b[i] + a[i - 1] for i in range(1, n + 1)]


def test_kl_product_exponents_are_the_walked_point():
    for k in range(2, 13):
        for l in range(2, 13):
            for n in [*range(1, 61), 400, 401]:
                assert kl_product_exponents(k, l, n) == kl_exponents_oracle(k, l, n), (k, l, n)
    for k, l, n in ((2, 3, 0), (3, 3, -1), (1, 3, 4), (3, 1, 5)):
        with pytest.raises(ValueError):
            kl_product_exponents(k, l, n)


def test_u_steps_stop_at_the_first_step_that_is_not_one():
    assert _u_steps([1, 2, 5, 8, 19]) == [3, 3, 2, 3]
    assert _u_steps((1, 2, 5, 9, 19)) == [3, 3]
    assert _u_steps([2, 4]) == []
    assert _u_steps([7]) == []


def test_u_generation_example():
    assert generate_from_u((3, 3, 2, 3), 1, 5) == [1, 2, 5, 8, 19]
    assert generate_from_u((4, 1, 2, 5, 1, 2, 5, 1), 1, 9) == [1, 3, 2, 1, 3, 2, 1, 3, 2]


def test_u_generation_stops_at_the_first_nonpositive_term():
    # checked as each term is built: nothing past term 2 is computed, so the
    # 3000 steps of a million do not build million-digit terms
    u = (1,) + (10**6,) * 3000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="term 2 of the u-generated sequence is 0, not positive"):
            generate_from_u(u, 1, len(u) + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_u_generation_rejects_with_index():
    # u = (1,) from s1 = 1 gives s2 = 0
    with pytest.raises(ValueError, match="term 2"):
        generate_from_u((1,), 1, 2)
    with pytest.raises(ValueError, match="u_2"):
        generate_from_u((2, 0), 1, 3)
    with pytest.raises(ValueError):
        generate_from_u((2,), 0, 2)


def test_u_generation_rejects_a_length_its_multipliers_do_not_fit():
    # n counts terms: n - 1 multipliers make them, and n >= 1
    with pytest.raises(ValueError, match=r"^need n >= 1, got 0$"):
        generate_from_u((3,), 1, 0)
    with pytest.raises(ValueError, match=r"^need 4 multipliers for n=5, got 1$"):
        generate_from_u((3,), 1, 5)


def test_recognize_round_trip():
    s = generate_from_u((3, 3, 2, 3), 1, 5)
    assert recognize_u_generated(s) == [3, 3, 2, 3]


def test_recognize_none_when_not_u_generated():
    assert recognize_u_generated((1, 3, 4)) is None


def test_recognize_raises_on_shared_factor():
    with pytest.raises(CoprimalityError):
        recognize_u_generated((2, 4, 7))
    with pytest.raises(CoprimalityError):
        recognize_u_generated((1, 2, 4))


def test_recognize_singleton():
    assert recognize_u_generated((7,)) == []


def sweep_recognize(s):
    """u-recognition with a gcd on every consecutive pair before looking for u."""
    for i in range(len(s) - 1):
        if gcd(s[i], s[i + 1]) != 1:
            raise CoprimalityError(
                f"terms {i + 1} and {i + 2} share a factor: gcd({s[i]}, {s[i + 1]}) != 1"
            )
    u = []
    t = [1, *s]
    for i in range(2, len(t)):
        q, r = divmod(t[i] + t[i - 2], t[i - 1])
        if r != 0 or q < 1:
            return None
        u.append(q)
    return u


def outcome(f, s):
    try:
        return f(s)
    except CoprimalityError as exc:
        return str(exc)


@st.composite
def u_prefixes(draw):
    """A u-generated sequence, some of its terms scaled or shifted, and a
    tail of arbitrary terms: integral steps up to a point, then anything."""
    u = draw(st.lists(st.integers(1, 5), max_size=8))
    try:
        s = generate_from_u(u, draw(st.integers(1, 5)), len(u) + 1)
    except ValueError:
        s = [1]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(s) - 1))
        s[i] = max(1, s[i] + draw(st.integers(-3, 3))) * draw(st.sampled_from([1, 2, 3]))
    return s + draw(st.lists(st.integers(1, 12), max_size=2))


@given(st.one_of(st.lists(st.integers(1, 12), min_size=1, max_size=7), u_prefixes()))
def test_recognition_matches_the_gcd_sweep(s):
    assert outcome(recognize_u_generated, s) == outcome(sweep_recognize, s)


def drawn_from(s, drawn):
    """The terms of s, each appended to drawn as it is drawn."""
    for x in s:
        drawn.append(x)
        yield x


@given(st.one_of(st.lists(st.integers(1, 12), min_size=1, max_size=7), u_prefixes()))
def test_u_steps_draw_an_iterator_to_the_first_step_that_is_not_one(s):
    # on an iterator the scan finds the list's u-steps, and draws the terms
    # they reach and the first one no u-step reaches: len(u) + 2 at most
    drawn = []
    u = _u_steps(drawn_from(s, drawn))
    assert u == _u_steps(s)
    assert drawn == s[: len(u) + 2]


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=7),
    st.integers(1, 4),
)
def test_u_generated_sequences_have_coprime_neighbours(u, s1):
    try:
        s = generate_from_u(u, s1, len(u) + 1)
    except ValueError:
        return
    assert all(gcd(s[i], s[i + 1]) == 1 for i in range(len(s) - 1))
    assert recognize_u_generated(s) == list(u)


def test_one_mod_k():
    assert parse_sequence_spec("onemodk:4").realize(5) == one_mod_k(4, 5) == [1, 5, 9, 13, 17]
    assert parse_sequence_spec("onemodk:1").realize(3) == one_mod_k(1, 3) == [1, 2, 3]
    with pytest.raises(ValueError):
        SequenceSpec("one_mod_k", (0,)).realize(3)


def test_spec_of_unknown_kind_does_not_realize():
    # a spec built without the parser, whose kind no generator knows
    spec = SequenceSpec("zzz", (1,))
    for build in (spec.realize, spec._terms):
        with pytest.raises(ValueError, match="^unknown kind 'zzz'$"):
            build(2)


def test_parse_explicit():
    sp = parse_sequence_spec("list:1,3,5")
    assert sp.kind == "explicit" and sp.params == (1, 3, 5)
    assert not sp.needs_length()
    assert sp.realize() == [1, 3, 5]
    assert sp.realize(2) == [1, 3]
    with pytest.raises(ValueError):
        sp.realize(9)


@pytest.mark.parametrize("n", [0, -1, -2])
def test_explicit_realization_rejects_n_below_one(n):
    # a negative n must not slice terms off the end
    spec = parse_sequence_spec("list:1,2,3")
    for build in (spec.realize, spec._terms):
        with pytest.raises(ValueError, match="need n >= 1"):
            build(n)


def test_parse_families():
    assert parse_sequence_spec("rec:3,9").realize(4) == [1, 3, 18, 81]
    assert parse_sequence_spec("kl:2,3").realize(4) == [1, 3, 5, 12]
    assert parse_sequence_spec("ell:4").realize(3) == [1, 4, 15]
    assert parse_sequence_spec("onemodk:4").realize(3) == [1, 5, 9]


def test_parse_u_with_first_term():
    sp = parse_sequence_spec("u:3,3,2,3;1")
    assert sp.kind == "u"
    assert sp.realize() == [1, 2, 5, 8, 19]
    assert sp.default_length() == 5


TERM_SOURCES = [
    ("rec:3,9", 4, [1, 3, 18, 81]),
    ("rec:4,0", 3, [1, 4, 16]),
    ("rec:2,-1", 4, [1, 2, 3, 4]),
    ("kl:2,3", 4, [1, 3, 5, 12]),
    ("ell:4", 3, [1, 4, 15]),
    ("onemodk:4", 3, [1, 5, 9]),
    ("u:3,3,2,3;1", None, [1, 2, 5, 8, 19]),
    ("u:2;5", 1, [5]),
    ("list:1,3,5", None, [1, 3, 5]),
    ("list:1,3,5", 2, [1, 3]),
]


@pytest.mark.parametrize("text, n, terms", TERM_SOURCES)
def test_term_source_yields_the_realized_terms(text, n, terms):
    spec = parse_sequence_spec(text)
    source = spec._terms(n)
    assert iter(source) is source  # an iterator, not a list
    assert list(source) == spec.realize(n) == terms


def test_recurrence_term_source_is_lazy():
    # rec:l,b with b != -1 makes no term before it is drawn
    source = parse_sequence_spec("rec:3,9")._terms(10**18)
    assert next(source) == 1
    assert list(islice(source, 3)) == [3, 18, 81]


SPEC_ERRORS = [
    ("no-colon", "expected 'kind:...' with one of rec, kl, ell, u, onemodk, list", 0),
    ("zzz:1", "unknown kind 'zzz'", 0),
    ("list:1,x,5", "expected an integer term, got 'x'", 7),
    ("rec:3,y", "expected an integer coefficient, got 'y'", 6),
    ("ell:", "expected an integer parameter, got ''", 4),
    ("rec:3", "rec takes exactly two coefficients, got 1", 4),
    ("rec:1,2,3", "rec takes exactly two coefficients, got 3", 4),
    ("kl:2", "kl takes exactly two parameters, got 1", 3),
    ("kl:2,3,4", "kl takes exactly two parameters, got 3", 3),
    ("ell:2,3", "ell takes exactly one parameter, got 2", 4),
    ("onemodk:1,2", "onemodk takes exactly one parameter, got 2", 8),
    ("kl:1,3", "parameter must be >= 2, got 1", 3),
    ("kl:3, 1", "parameter must be >= 2, got 1", 6),
    ("ell:1", "parameter must be >= 2, got 1", 4),
    ("onemodk:0", "parameter must be >= 1, got 0", 8),
    ("list:1,0", "term must be >= 1, got 0", 7),
    ("rec:2,-2", "recurrence l=2, b=-2 does not stay positive", 4),
    ("rec:0,3", "recurrence l=0, b=3 does not stay positive", 4),
    ("u:1,2", "u form is 'u:u1,u2,...;s1'", 5),
    ("u:1,0;1", "multiplier must be >= 1, got 0", 4),
    ("u:1;0", "first term must be >= 1, got 0", 4),
    ("u:1;1,2", "exactly one first term after ';'", 4),
]


@pytest.mark.parametrize("text, message, position", SPEC_ERRORS, ids=[e[0] for e in SPEC_ERRORS])
def test_parse_errors_carry_positions(text, message, position):
    with pytest.raises(SpecParseError) as ei:
        parse_sequence_spec(text)
    assert ei.value.position == position
    assert str(ei.value) == f"{message} (position {position})"


FAMILY_SPECS = ["ell:2", "ell:5", "rec:2,-1", "rec:3,-1", "kl:2,2", "kl:2,5", "kl:7,3", "onemodk:1", "onemodk:7"]


@pytest.mark.parametrize("text", FAMILY_SPECS)
@pytest.mark.parametrize("n", [1, 2, 3, 1100])
def test_family_multipliers_are_the_recognized_u(text, n):
    spec = parse_sequence_spec(text)
    assert spec.multipliers(n) == recognize_u_generated(spec.realize(n))


@pytest.mark.parametrize("text", FAMILY_SPECS)
@pytest.mark.parametrize("n", [1, 2, 3, 1100])
def test_family_terms_match_their_reference_definitions(text, n):
    assert parse_sequence_spec(text).realize(n) == family_oracle(text, n)


BAD_FAMILY_PARAMETERS = [
    ("kl", (1, 3), "parameter must be >= 2, got 1"),
    ("one_mod_k", (0,), "parameter must be >= 1, got 0"),
    ("ell", (1,), "parameter must be >= 2, got 1"),
    ("recurrence", (1, -1), "recurrence l=1, b=-1 does not stay positive"),
]


@pytest.mark.parametrize("kind, params, message", BAD_FAMILY_PARAMETERS)
def test_specs_built_directly_check_their_parameters(kind, params, message):
    # the parser refuses these with positions; a spec built without it must
    # not walk multipliers that generate nonpositive terms
    spec = SequenceSpec(kind, params)
    # _terms checks them when called, before a term is drawn
    for build in (spec.realize, spec._terms, spec.multipliers):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(4)


@pytest.mark.parametrize("text", ["list:1,3,5", "rec:3,9", "rec:4,0", "rec:1,1"])
def test_multipliers_only_where_the_kind_fixes_them(text):
    assert parse_sequence_spec(text).multipliers(3) is None


def test_u_spec_multipliers_are_its_own_once_its_terms_are_positive():
    spec = parse_sequence_spec("u:3,3,2;1")
    assert spec.multipliers(3) == [3, 3] and spec.multipliers() == [3, 3, 2]
    # 1, 2, 1, -1: term 4 is the first that is not positive, and n = 3 stops short of it
    bad = SequenceSpec("u", ((3, 1, 1), 1))
    assert bad.multipliers(3) == [3, 1]
    with pytest.raises(ValueError) as want:
        generate_from_u((3, 1, 1), 1, 4)
    assert str(want.value) == "term 4 of the u-generated sequence is -1, not positive"
    for multipliers in (bad.multipliers, parse_sequence_spec("u:3,1,1;1").multipliers):
        with pytest.raises(ValueError, match=f"^{want.value}$"):
            multipliers()


@pytest.mark.parametrize("n", [0, -4])
def test_multipliers_reject_n_below_one(n):
    # rec:l,b with b != -1 too, though it has no multipliers to give
    for text in ("kl:2,3", "rec:3,9"):
        with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
            parse_sequence_spec(text).multipliers(n)


def test_family_realization_needs_length():
    sp = parse_sequence_spec("rec:3,9")
    assert sp.needs_length()
    with pytest.raises(ValueError):
        sp.realize()
