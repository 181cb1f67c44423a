"""Positive integer sequence families and their text form.

All families start at s_1 = 1 and produce the terms s_1..s_n.  A sequence
spec is parsed from one of the text forms

    rec:L,B       second-order recurrence s_j = L*s_{j-1} + B*s_{j-2}
    kl:K,L        alternating two-coefficient recurrence (K, L >= 2)
    ell:L         the kl:L,L special case (L >= 2)
    u:U1,...;S1   u-generated sequence with first term S1
    onemodk:K     1, K+1, 2K+1, ...
    list:S1,...   explicit terms

Parse errors carry the 0-based character position of the offending token.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, cycle, islice, repeat
from math import gcd

__all__ = [
    "CoprimalityError",
    "InvariantViolation",
    "SequenceSpec",
    "SpecParseError",
    "generate_from_u",
    "generate_kl",
    "generate_recurrence",
    "kl_product_exponents",
    "parse_sequence_spec",
    "recognize_u_generated",
    "validate_positivity",
]


class InvariantViolation(RuntimeError):
    """A theorem about the answer failed: a bug in the computation, not bad input.

    Theorem checks raise it explicitly, so `python -O` does not remove them.
    """


class CoprimalityError(ValueError):
    """Consecutive terms share a factor; u-recognition does not apply."""


class SpecParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (position {position})")
        self.position = position


def _check_positive(s):
    if len(s) < 1 or any(x < 1 for x in s):
        raise ValueError("need a nonempty positive sequence")


def validate_positivity(l, b):
    """True iff every term of the (l, b) recurrence stays positive."""
    return l > 0 and l * l + 4 * b >= 0


def recurrence_terms(l, b):
    """s_1, s_2, ... of s_j = l*s_{j-1} + b*s_{j-2} with s_0 = 0, s_1 = 1, without
    end.  The pair is checked at once, before any term is drawn."""
    if not validate_positivity(l, b):
        raise ValueError(f"recurrence l={l}, b={b} does not stay positive")
    return _two_term_walk(repeat(l), b, 0, 1)


def generate_recurrence(l, b, n):
    """Terms s_1..s_n of s_j = l*s_{j-1} + b*s_{j-2} with s_0 = 0, s_1 = 1."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return list(islice(recurrence_terms(l, b), n))


def generate_kl(k, l, n):
    """Terms a_1..a_n of the alternating recurrence.

    a_0 = 0, a_1 = 1, then a_{2i} = l*a_{2i-1} - a_{2i-2} and
    a_{2i+1} = k*a_{2i} - a_{2i-1}.  Positivity requires k, l >= 2.
    """
    return SequenceSpec("kl", (k, l)).realize(n)


def kl_product_exponents(k, l, n):
    """Denominator exponents of the product formula for the (k, l) family
    (Bousquet-Melou and Eriksson, JCTA 86, 1999): with a the (k, l)- and b
    the (l, k)-sequence, a_0 = b_0 = 0, (a_i + b_{i-1}) for n even and
    (b_i + a_{i-1}) for n odd.  That is the point of kl:k,l (n even) or
    kl:l,k (n odd), the u-walk (`_two_term_walk` with q = -1) from
    (0, 1) = (1, 1) + (-1, 0), as the walk is linear in its seeds: kl:k,l's
    multipliers walk a_i from (1, 1), and from (-1, 0) 0, 1, k, ..., b_{i-1}:
    u_1 does not enter, and u_2, u_3, ... = k, l, ... is b's rule.
    """
    u = SequenceSpec("kl", (k, l) if n % 2 == 0 else (l, k)).multipliers(n)
    return list(_two_term_walk(u, -1, 0, 1))


def _two_term_walk(p, q, first, second):
    """x_1, x_2, ... of x_{i+1} = p_i*x_i + q*x_{i-1} over the iterable
    p = (p_1, p_2, ...) from x_0 = first, x_1 = second, drawn lazily: one
    entry more than p has.  With q = -1 and p the multipliers u it is the
    u-walk, the terms from (1, s_1) and the Gorenstein point from (0, 1)
    (`lhcone.gorenstein.u_generated_point`); rec:l,b's terms are p = l, l,
    ... with q = b from (0, 1), and rec:l,0's Gorenstein point is p = l+1,
    l+1, ... with q = -l from (0, 1) (see `gorenstein_fail_index`).  The
    entries are of the seeds' number type: ints from int seeds, and
    whatever type the caller seeds it with (`lhcone.cli._walk` chooses,
    piece by piece).  A u-walk takes a loop of its own, as p_i*b - a costs
    less than p_i*b + q*a.
    """
    a, b = first, second
    yield b
    if q == -1:
        for pi in p:
            a, b = b, pi * b - a
            yield b
    else:
        for pi in p:
            a, b = b, pi * b + q * a
            yield b


def generate_from_u(u, s1, n):
    """The u-generated sequence: s_2 = u_1*s_1 - 1, s_{i+1} = u_i*s_i - s_{i-1}.

    Rejects (with the offending 1-based index) as soon as a term fails to be
    positive: the checks of `SequenceSpec.multipliers`, then the walk of
    `SequenceSpec.realize`.
    """
    return SequenceSpec("u", (u, s1)).realize(n)


def _u_steps(s):
    """The u_i of the leading u-steps s_{i+1} = u_i*s_i - s_{i-1} of the
    positive terms s, a list or an iterator, from s_0 = 1: len(s) - 1 of
    them iff s is u-generated.  An iterator is drawn up to the first term no
    u-step reaches: len(u) + 2 terms at most."""
    s = iter(s)
    u, pprev, prev = [], 1, next(s, None)
    for cur in s:
        q, r = divmod(cur + pprev, prev)
        if r:
            break
        u.append(q)
        pprev, prev = prev, cur
    return u


def _shared_factor(j, s_j, s_next):
    """The message of the CoprimalityError for terms j and j + 1."""
    return f"terms {j} and {j + 1} share a factor: gcd({s_j}, {s_next}) != 1"


def _coprimality_sweep(s, j):
    """Raise CoprimalityError at the first of the pairs of terms (j, j + 1),
    (j + 1, j + 2), ... of the list s (s_1 = s[0]) that share a factor."""
    for i in range(j, len(s)):
        if gcd(s[i - 1], s[i]) != 1:
            raise CoprimalityError(_shared_factor(i, s[i - 1], s[i]))


def recognize_u_generated(s):
    """Recover the multiplier list u from s, or None when no such u exists.

    Requires gcd(s_i, s_{i+1}) = 1 for every consecutive pair; a violation
    raises CoprimalityError, which is a different outcome than returning
    None (the recognition criterion is only an iff under that hypothesis).

    Only the pairs from the first step that is not a u-step on need a gcd,
    so this is `_u_steps` and then `_coprimality_sweep` from the pair
    (len(u) + 1, len(u) + 2): a u-step s_i = u*s_{i-1} - s_{i-2}, whose u is
    positive as the terms are, gives gcd(s_i, s_{i-1}) = gcd(s_{i-1}, s_{i-2}),
    which is gcd(s_1, s_0 = 1) = 1 at the start, so every earlier pair is
    coprime.
    """
    _check_positive(s)
    u = _u_steps(s)
    _coprimality_sweep(s, len(u) + 1)
    return u if len(u) == len(s) - 1 else None


def _kl_u(k, l):
    return chain([l + 1], cycle((k, l)))


# the families by text name: kind, parameter word, least value, parameter
# count, and the multiplier rule: the unending u_1, u_2, ... with
# s_{i+1} = u_i*s_i - s_{i-1} (s_0 = s_1 = 1) that defines the terms, or
# None where the parameters fix no such u
_FAMILIES = {
    "rec": ("recurrence", "coefficient", None, 2, lambda l, b: _kl_u(l, l) if b == -1 else None),
    "kl": ("kl", "parameter", 2, 2, _kl_u),
    "ell": ("ell", "parameter", 2, 1, lambda l: _kl_u(l, l)),
    "onemodk": ("one_mod_k", "parameter", 1, 1, lambda k: chain([k + 2], repeat(2))),
}
_KINDS = {row[0]: row for row in _FAMILIES.values()}


class SequenceSpec(namedtuple("SequenceSpec", "kind params")):
    """A parsed sequence description: a family plus parameters, or a list."""

    __slots__ = ()

    def needs_length(self):
        return self.default_length() is None

    def default_length(self):
        if self.kind == "explicit":
            return len(self.params)
        if self.kind == "u":
            u, _ = self.params
            return len(u) + 1
        return None

    def multipliers(self, n=None):
        """u_1..u_{n-1} where the spec fixes them: the rule that defines its
        terms, s_{i+1} = u_i*s_i - s_{i-1} from s_0 = 1 and s_1 (see
        `first_term`).  They are a u: spec's own, l+1, l, l, ... for ell:l and
        rec:l,-1, l+1, k, l, k, ... for kl:k,l and k+2, 2, 2, ... for
        onemodk:k.  None for a list and for rec:l,b with b != -1.  n defaults
        to the natural length where one exists.

        A family's parameters are checked, then n.  A u: spec is checked as
        `generate_from_u` documents: s_1, n, the count of u, each u_i >= 1,
        then every term positive, each error at its first bad index, by the
        walk of the terms, which holds only the last two."""
        n = self._length(n)
        if self.kind == "u":
            u, s1 = self.params
            if s1 < 1:
                raise ValueError(f"first term must be positive, got {s1}")
            if n < 1:
                raise ValueError(f"need n >= 1, got {n}")
            if len(u) < n - 1:
                raise ValueError(f"need {n - 1} multipliers for n={n}, got {len(u)}")
            u = list(u[: n - 1])
            for i, ui in enumerate(u, start=1):
                if ui < 1:
                    raise ValueError(f"multiplier u_{i} must be positive, got {ui}")
            # s_0 = 1 makes s_2 = u_1*s_1 - 1 an instance of the rule
            for i, s in enumerate(_two_term_walk(u, -1, 1, s1), start=1):
                if s < 1:
                    raise ValueError(f"term {i} of the u-generated sequence is {s}, not positive")
            return u
        if self.kind not in _KINDS:
            return None
        _, word, least, _, rule = _KINDS[self.kind]
        if self.kind == "recurrence" and not validate_positivity(*self.params):
            raise ValueError("recurrence l={}, b={} does not stay positive".format(*self.params))
        if least is not None and min(self.params) < least:
            raise ValueError(f"{word} must be >= {least}, got {min(self.params)}")
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        u = rule(*self.params)
        return None if u is None else list(islice(u, n - 1))

    @property
    def first_term(self):
        """s_1: a u: spec's own, a list's first term and 1 for a family.  The
        terms of a spec with multipliers are the walk from (1, s_1) over them,
        and so are a list's, if its every step is a u-step."""
        if self.kind == "explicit":
            return self.params[0]
        return self.params[1] if self.kind == "u" else 1

    def realize(self, n=None):
        """The terms s_1..s_n as a list: `_terms` drawn whole."""
        return list(self._terms(n))

    def _terms(self, n=None):
        """The terms s_1..s_n, an iterator drawn lazily; n defaults to the
        natural length where one exists.  A list's are its prefix; a spec
        with multipliers is walked from (1, s_1) over them; rec:l,b's
        (b != -1) are `recurrence_terms`, computed only as they are drawn,
        so no term past the last one drawn is made.  The spec and n are
        checked here, before the iterator is returned."""
        n = self._length(n)
        if self.kind == "explicit":
            if n < 1:
                raise ValueError(f"need n >= 1, got {n}")
            if n > len(self.params):
                raise ValueError(f"list has {len(self.params)} terms, asked for {n}")
            return islice(self.params, n)
        u = self.multipliers(n)
        if u is not None:
            return _two_term_walk(u, -1, 1, self.first_term)
        if self.kind != "recurrence":
            raise ValueError(f"unknown kind '{self.kind}'")
        return islice(recurrence_terms(*self.params), n)

    def _length(self, n):
        n = self.default_length() if n is None else n
        if n is None:
            raise ValueError(f"a length n is required for kind '{self.kind}'")
        return n


def _parse_int_list(text, offset, what, minimum=None):
    vals = []
    pos = offset
    for part in text.split(","):
        token = part.strip()
        tokpos = pos + (len(part) - len(part.lstrip()))
        try:
            v = int(token)
        except ValueError:
            raise SpecParseError(f"expected an integer {what}, got '{token}'", tokpos) from None
        if minimum is not None and v < minimum:
            raise SpecParseError(f"{what} must be >= {minimum}, got {v}", tokpos)
        vals.append(v)
        pos += len(part) + 1
    return vals


def parse_sequence_spec(text):
    """Parse the 'kind:args' text form, reporting positions on errors."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise SpecParseError("expected 'kind:...' with one of rec, kl, ell, u, onemodk, list", 0)
    kind = head.strip()
    arg_offset = len(head) + 1
    if kind in _FAMILIES:
        spec_kind, word, least, count, _ = _FAMILIES[kind]
        vals = _parse_int_list(rest, arg_offset, word, minimum=least)
        if len(vals) != count:
            words = f"{('one', 'two')[count - 1]} {word}{'s' if count > 1 else ''}"
            raise SpecParseError(f"{kind} takes exactly {words}, got {len(vals)}", arg_offset)
        if kind == "rec" and not validate_positivity(*vals):
            l, b = vals
            raise SpecParseError(f"recurrence l={l}, b={b} does not stay positive", arg_offset)
        return SequenceSpec(spec_kind, tuple(vals))
    if kind == "list":
        vals = _parse_int_list(rest, arg_offset, "term", minimum=1)
        return SequenceSpec("explicit", tuple(vals))
    if kind == "u":
        left, usep, right = rest.partition(";")
        if not usep:
            raise SpecParseError("u form is 'u:u1,u2,...;s1'", arg_offset + len(rest))
        u = _parse_int_list(left, arg_offset, "multiplier", minimum=1)
        s1vals = _parse_int_list(right, arg_offset + len(left) + 1, "first term", minimum=1)
        if len(s1vals) != 1:
            raise SpecParseError("exactly one first term after ';'", arg_offset + len(left) + 1)
        return SequenceSpec("u", (tuple(u), s1vals[0]))
    raise SpecParseError(f"unknown kind '{kind}'", 0)
