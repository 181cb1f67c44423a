"""Arithmetic invariants of the (l, b) recurrence: the gcd profile
(r, t, sigma, gamma, beta), the normalized gcd ratio table, the reduced
f-sequence, and the stable-growth index used by the failure threshold test.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice, pairwise
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
    _check_pair(l, b)
    if N < 1:
        raise ValueError(f"need N >= 1, got {N}")
    prof = gcd_profile(l, b)
    rows, norm = [], 1  # t^{n-1}*sigma^{floor(n/2)}, carried from row to row
    for n, (prev, cur) in enumerate(islice(pairwise(recurrence_terms(l, b)), N), start=1):
        g = gcd(cur, prev)
        u, rem = divmod(g, norm)
        if rem or u < 1 or prof.t % u:
            raise InvariantViolation(f"u_{n} = gcd/normalizer is not a positive divisor of t")
        rows.append((n, g, norm, u))
        norm *= prof.t * prof.sigma if n % 2 else prof.t
    return RatioTable(tuple(rows))


def f_sequence(l, b, n):
    """f_1..f_n with f_j = (l/t)f_{j-1} + (b/t^2)f_{j-2}, so s_j = t^{j-1}*f_j.

    Checked through f_{n+1} as the terms are drawn, with the powers carried
    from term to term: s_j = t^{j-1}*f_j and gcd(f_j, f_{j-1}) =
    sigma^{floor((j-1)/2)}."""
    _check_pair(l, b)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    prof = gcd_profile(l, b)
    t, sigma = prof.t, prof.sigma
    terms = zip(recurrence_terms(l, b), recurrence_terms(l // t, b // (t * t)))
    f, power, shared = [], 1, 1  # t^{j-1} and sigma^{floor((j-1)/2)} at term j
    for j, (s_j, f_j) in enumerate(islice(terms, n + 1), start=1):
        if s_j != power * f_j:
            raise InvariantViolation(f"s_{j} != t^{j - 1}*f_{j}")
        if f and gcd(f_j, f[-1]) != shared:
            raise InvariantViolation(f"gcd(f_{j}, f_{j - 1}) != sigma^{(j - 1) // 2}")
        f.append(f_j)
        power, shared = power * t, shared * (sigma if j % 2 == 0 else 1)
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
