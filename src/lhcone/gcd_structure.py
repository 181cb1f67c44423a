"""Arithmetic invariants of the (l, b) recurrence: the gcd profile
(r, t, sigma, gamma, beta), the normalized gcd ratio table, the reduced
f-sequence, and the stable-growth index used by the failure threshold test.

Consecutive gcds come from a lemma, never from a gcd of two long terms.
For any s_j = l*s_{j-1} + b*s_{j-2} with s_0 = 0, s_1 = 1 (the f-sequence is
one, with l/t and b/t^2), let g_j = gcd(s_{j+1}, s_j), so g_0 = gcd(1, 0) = 1.
Then

    g_j = g_{j-1} * gcd(b, s_j/g_{j-1}).

Proof: s_{j+1} = l*s_j + b*s_{j-1}, so g_j = gcd(b*s_{j-1}, s_j).  Write
s_j = g*x and s_{j-1} = g*y with g = g_{j-1}, so that gcd(x, y) = 1.  Then
g_j = g*gcd(b*y, x) = g*gcd(b, x), since y shares no factor with x.

A step costs the gcd of the small b with one term, linear in its digits,
and one exact division, against Lehmer's gcd on two long terms; the
pairwise gcd stays in the tests as the oracle.  Each g_j is still checked
on the terms drawn: it divides s_j by its making, as gcd(b, s_j/g_{j-1})
divides s_j/g_{j-1}, and s_{j+1} by the exact division whose quotient
s_{j+1}/g_j the next step takes.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import gcd

from .gorenstein import gorenstein_fail_index
from .sequences import InvariantViolation, recurrence_terms, validate_positivity


class HorizonTooSmallError(ValueError):
    pass


GcdProfile = namedtuple("GcdProfile", "r t sigma gamma beta")


def _check_pair(l, b):
    if b == 0 or not validate_positivity(l, b):
        raise ValueError(f"need a positive recurrence with b != 0, got l={l}, b={b}")


def gcd_profile(l, b):
    """r = gcd(l,b), t = gcd(l^2/r, b/r), sigma = r/t, l = sigma*t*gamma,
    b = sigma*t^2*beta.  The divisibility facts used here are theorems,
    checked on every answer: an InvariantViolation means a bug."""
    if l == 0 or b == 0:
        raise ValueError(f"need l != 0 and b != 0, got l={l}, b={b}")
    r = gcd(l, b)
    t = gcd(l * l // r, b // r)
    if r % t:
        raise InvariantViolation(f"t={t} does not divide r={r}")
    sigma = r // t
    if l % (sigma * t) or b % (sigma * t * t):
        raise InvariantViolation("sigma*t does not divide l or sigma*t^2 does not divide b")
    gamma = l // (sigma * t)
    beta = b // (sigma * t * t)
    if not gcd(gamma, beta) == gcd(gamma, t) == gcd(sigma, beta) == 1:
        raise InvariantViolation("gamma, beta, sigma and t are not pairwise coprime as required")
    return GcdProfile(r, t, sigma, gamma, beta)


class RatioTable(namedtuple("RatioTable", "rows")):
    """Rows (n, gcd(s_{n+1}, s_n), normalizer t^{n-1}*sigma^{floor(n/2)}, u_n)."""

    __slots__ = ()

    @property
    def u_values(self):
        return [u for (_, _, _, u) in self.rows]


def ratio_table(l, b, N):
    """Rows (n, g_n, normalizer, u_n) for n = 1..N: g_n = gcd(s_{n+1}, s_n),
    the normalizer t^{n-1}*sigma^{floor(n/2)} and u_n = g_n/normalizer,
    a positive divisor of t by theorem, checked on every row.

    g_n is carried from row to row by the lemma of the module docstring,
    g_n = g_{n-1}*gcd(b, s_n/g_{n-1}), and checked to divide s_{n+1} by the
    exact division that gives the next row its s_{n+1}/g_n; the normalizer
    is carried too."""
    _check_pair(l, b)
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    prof = gcd_profile(l, b)
    t, steps = prof.t, (prof.t, prof.t * prof.sigma)  # norm's factor after an even, odd row
    terms = recurrence_terms(l, b)
    # g_{n-1}, s_n/g_{n-1} and t^{n-1}*sigma^{floor(n/2)} at row n
    rows, g, q, norm = [], 1, next(terms), 1
    for n, s_next in enumerate(islice(terms, N), start=1):
        g *= gcd(b, q)
        q, rem = divmod(s_next, g)
        u, rem_u = divmod(g, norm)
        if rem or rem_u or u < 1 or t % u:
            raise InvariantViolation(f"u_{n} = gcd/normalizer is not a positive divisor of t")
        rows.append((n, g, norm, u))
        norm *= steps[n % 2]
    return RatioTable(tuple(rows))


def f_sequence(l, b, n):
    """f_1..f_n with f_j = (l/t)f_{j-1} + (b/t^2)f_{j-2}, so s_j = t^{j-1}*f_j.

    Checked through f_{n+1} as the terms are drawn, with the powers carried
    from term to term: s_j = t^{j-1}*f_j and gcd(f_j, f_{j-1}) =
    sigma^{floor((j-1)/2)}.  That gcd, g_j here, is carried by the lemma of
    the module docstring on f, an (l/t, b/t^2) recurrence from 0, 1: g_j =
    g_{j-1}*gcd(b/t^2, f_{j-1}/g_{j-1}).  It is checked to divide f_j by the
    exact division that gives the next term its f_j/g_j."""
    _check_pair(l, b)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    prof = gcd_profile(l, b)
    t, c = prof.t, b // (prof.t * prof.t)
    steps = (prof.sigma, 1)  # shared's factor after an even, odd term
    terms = zip(recurrence_terms(l, b), recurrence_terms(l // t, c))
    # t^{j-1}, sigma^{floor((j-1)/2)}, g_{j-1} and f_{j-1}/g_{j-1} at term j,
    # the last seeded so that g_1 = 1 = gcd(f_1, f_0)
    f, power, shared, g, q = [], 1, 1, 1, 1
    for j, (s_j, f_j) in enumerate(islice(terms, n + 1), start=1):
        if s_j != power * f_j:
            raise InvariantViolation(f"s_{j} != t^{j - 1}*f_{j}")
        g *= gcd(c, q)
        q, rem = divmod(f_j, g)
        if rem or g != shared:
            raise InvariantViolation(f"gcd(f_{j}, f_{j - 1}) != sigma^{(j - 1) // 2}")
        f.append(f_j)
        power *= t
        shared *= steps[j % 2]
    return f[:n]


def _growth_hits(l, b, prof):
    """For n = 1, 2, ... in turn: does s_n satisfy the growth bound?

    s_n/(t^{n-2}*sigma^{floor((n-1)/2)}) > t*(r+|b|) is tested in integers as
    s_n*t > t*(r+|b|)*t^{n-1}*sigma^{floor((n-1)/2)}, with the power carried
    from one n to the next.
    """
    threshold = prof.t * (prof.r + abs(b))
    power = 1  # t^{n-1} * sigma^{floor((n-1)/2)}
    for n, s_n in enumerate(recurrence_terms(l, b), start=1):
        yield s_n * prof.t > threshold * power
        power *= prof.t if n % 2 else prof.t * prof.sigma


def find_n0(l, b, horizon=None):
    """Smallest n0 whose whole window [n0, n0+horizon] satisfies the growth
    bound s_n/(t^{n-2}*sigma^{floor((n-1)/2)}) > t*(r+|b|).

    With no horizon given, the window is max(64, 4 * first index where the
    bound holds), looked for within 4096 terms.  On l = 2m, b = -m^2,
    s_n = n*m^(n-1) grows only linearly once normalized: n0 = m(m+1) + 1 for
    odd m and m(m+2) for even m, and the first index passes 4096 from odd
    m = 65 and even m = 90 on.  HorizonTooSmallError is raised then, and when
    no window starting at n0 <= horizon is clean, which is every horizon < 1.
    """
    _check_pair(l, b)
    if horizon is not None and horizon < 1:
        raise HorizonTooSmallError(f"need horizon >= 1, got {horizon}")
    hits = enumerate(_growth_hits(l, b, gcd_profile(l, b)), start=1)
    drawn = run = 0  # terms drawn so far; hits in a row up to the last one
    if horizon is None:
        drawn = next((n for n, hit in islice(hits, 4096) if hit), None)
        if drawn is None:
            raise HorizonTooSmallError("growth bound not reached within 4096 terms")
        horizon, run = max(64, 4 * drawn), 1
    # a clean window [n0, n0+horizon] with n0 <= horizon ends by 2*horizon
    for n, hit in islice(hits, max(2 * horizon - drawn, 0)):
        run = run + 1 if hit else 0
        if run > horizon:
            return n - horizon
    raise HorizonTooSmallError(
        f"no window of length {horizon + 1} starting at n0 <= {horizon} satisfies the bound"
    )


class ThresholdVerdict(namedtuple("ThresholdVerdict", "applicable threshold actual")):
    """Whether the threshold theorem applies, the index it predicts (an int
    or None) and the actual first failing index within it (or None)."""

    __slots__ = ()

    @property
    def confirmed(self):
        return self.applicable and self.actual is not None and self.actual <= self.threshold


def failure_threshold_check(l, b):
    """Universal Gorenstein failure threshold when gcd(l,b) = gcd(l^2,b).

    Under that hypothesis the cone family stops being Gorenstein at
    dimension 5 (b > 0) or 6 (b < -1) at the latest; the verdict carries the
    predicted threshold and the actual first failing index.  Without the
    hypothesis the verdict is marked not applicable.
    """
    if b in (0, -1):
        raise ValueError(f"need b outside {{0, -1}}, got b={b}")
    if not validate_positivity(l, b):
        raise ValueError(f"recurrence l={l}, b={b} does not stay positive")
    if gcd(l, b) != gcd(l * l, b):
        return ThresholdVerdict(False, None, None)
    threshold = 5 if b > 0 else 6
    actual = gorenstein_fail_index(l, b, threshold)
    return ThresholdVerdict(True, threshold, actual)
