"""Arithmetic invariants of the (l, b) recurrence: the gcd profile
(r, t, sigma, gamma, beta), the normalized gcd ratio table, the reduced
f-sequence, and the stable-growth index used by the failure threshold test.

The table, the f-sequence and the growth index are read off one walk of the
reduced sequence f, the (l/t, b/t^2) recurrence from f_0 = 0, f_1 = 1; the
terms s_j of the (l, b) recurrence itself are never drawn.  Four facts,
proved here, make that so.

Reduction: s_j = t^{j-1}*f_j.  By induction: s_1 = 1 = f_1, s_2 = l = t*f_2,
and s_{j+1} = l*t^{j-1}*f_j + b*t^{j-2}*f_{j-1} = t^j*f_{j+1}, as t divides l
and t^2 divides b (the profile).

Lemma: for any s_j = p*s_{j-1} + c*s_{j-2} with s_0 = 0, s_1 = 1, let
h_j = gcd(s_{j+1}, s_j), so h_0 = gcd(1, 0) = 1.  Then

    h_j = h_{j-1} * gcd(c, s_j/h_{j-1}).

Proof: s_{j+1} = p*s_j + c*s_{j-1}, so h_j = gcd(c*s_{j-1}, s_j).  Write
s_j = h*x and s_{j-1} = h*y with h = h_{j-1}, so that gcd(x, y) = 1.  Then
h_j = h*gcd(c*y, x) = h*gcd(c, x), since y shares no factor with x.

Gcds of s: g_n = gcd(s_{n+1}, s_n) = t^{n-1}*h_n*gcd(t, f_n/h_n), with
h_n = gcd(f_{n+1}, f_n).  By the reduction g_n = t^{n-1}*gcd(t*f_{n+1}, f_n)
= t^{n-1}*h_n*gcd(t*f_{n+1}/h_n, f_n/h_n), and f_{n+1}/h_n is prime to
f_n/h_n.  With h_n = sigma^{floor(n/2)} (the paper's theorem on f), u_n =
g_n/(t^{n-1}*sigma^{floor(n/2)}) = gcd(t, f_n/h_n), a positive divisor of t.

Growth: by the reduction, s_n/(t^{n-2}*sigma^{floor((n-1)/2)}) is
t*f_n/h_{n-1}, so the bound "it exceeds t*(r+|b|)" reads f_n/h_{n-1} > r+|b|,
and f_n/h_{n-1} is the exact quotient the lemma's step takes.

So s_j = t^{j-1}*f_j and "u_n divides t" are proofs, not checks.  A step
costs the gcd of the small b/t^2 with one term and one exact division,
against Lehmer's gcd on two long terms; the pairwise gcd stays in the tests
as the oracle.  Each f_j is checked as it is drawn: h_{j-1} divides it (the
exact division the step takes), and the step's factor h_j/h_{j-1} is sigma
for even j and 1 for odd j, so that h_j = sigma^{floor(j/2)}.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from math import gcd

from .enumeration import _charge_terms
from .gorenstein import gorenstein_fail_index
from .sequences import InvariantViolation, recurrence_terms, validate_positivity

__all__ = [
    "GcdProfile",
    "HorizonTooSmallError",
    "RatioTable",
    "ThresholdVerdict",
    "failure_threshold_check",
    "f_sequence",
    "find_n0",
    "gcd_profile",
    "ratio_table",
]


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


def _reduced_walk(l, b, prof):
    """(f_j, f_j/h_{j-1}, h_j/h_{j-1}) for j = 1, 2, ...: one stream of f, with
    h_j = gcd(f_{j+1}, f_j) carried by the lemma and each f_j checked as it
    is drawn (module docstring)."""
    c, steps = b // (prof.t * prof.t), (prof.sigma, 1)
    h = 1  # h_{j-1} at term j
    for j, f in enumerate(recurrence_terms(l // prof.t, c), start=1):
        q, rem = divmod(f, h)
        if rem:
            raise InvariantViolation(f"gcd(f_{j}, f_{j - 1}) != sigma^{(j - 1) // 2}")
        k = gcd(c, q)
        if k != steps[j % 2]:
            raise InvariantViolation(f"gcd(f_{j + 1}, f_{j}) != sigma^{j // 2}")
        yield f, q, k
        h *= k


def _walk_through(l, b, n, name):
    """The profile and the walk of f for a caller that draws f_1..f_{n+1},
    n given as its argument name: those n + 1 terms are charged against the
    node budget (`lhcone.enumeration.node_budget`) first, before the pair
    and n are checked."""
    _charge_terms(n + 1)
    _check_pair(l, b)
    if n < 1:
        raise ValueError(f"need {name} >= 1, got {n}")
    prof = gcd_profile(l, b)
    return prof, _reduced_walk(l, b, prof)


def ratio_table(l, b, N):
    """Rows (n, g_n, normalizer, u_n) for n = 1..N: g_n = gcd(s_{n+1}, s_n),
    the normalizer t^{n-1}*sigma^{floor(n/2)} and u_n = g_n/normalizer.

    Read off the walk of f through f_{N+1} (module docstring), its N + 1
    terms charged against the node budget first: u_n = gcd(t, f_n/h_n),
    where f_n/h_n is the step's quotient f_n/h_{n-1} divided by
    h_n/h_{n-1}, and g_n = normalizer*u_n, the normalizer carried from row
    to row."""
    prof, walk = _walk_through(l, b, N, "N")
    t, steps = prof.t, (prof.t, prof.t * prof.sigma)  # norm's factor after an even, odd row
    rows, norm = [], 1
    for n, (_, q, k) in enumerate(islice(walk, N), start=1):
        u = gcd(t * k, q) // k  # gcd(t, q/k), as k divides q
        rows.append((n, norm * u, norm, u))
        norm *= steps[n % 2]
    next(walk)  # f_{N+1}, for the check of h_N
    return RatioTable(tuple(rows))


def f_sequence(l, b, n):
    """f_1..f_n with f_j = (l/t)f_{j-1} + (b/t^2)f_{j-2}, so s_j = t^{j-1}*f_j
    (module docstring); drawn through f_{n+1}, its n + 1 terms charged
    against the node budget first, each term checked by the walk:
    gcd(f_j, f_{j-1}) = sigma^{floor((j-1)/2)}."""
    _, walk = _walk_through(l, b, n, "n")
    f = [f_j for f_j, _, _ in islice(walk, n)]
    next(walk)  # f_{n+1}, for the check of h_n
    return f


def find_n0(l, b, horizon=None):
    """Smallest n0 whose whole window [n0, n0+horizon] satisfies the growth
    bound s_n/(t^{n-2}*sigma^{floor((n-1)/2)}) > t*(r+|b|).

    With no horizon given, the window is max(64, 4 * first index where the
    bound holds), looked for within 4096 terms.  The bound is tested as
    f_n/h_{n-1} > r+|b| on the walk of f (module docstring), which draws no
    more than 2*horizon terms.  HorizonTooSmallError is raised when the
    bound is not reached within those 4096 terms, and when no window
    starting at n0 <= horizon is clean, which is every horizon < 1.  An
    explicit horizon charges the scan's 2*horizon terms against the node
    budget first, before the pair is checked; a double root, which draws no
    term, charges nothing.

    A double root, l = 2m and b = -m^2, is answered by proof, with no walk.
    For odd m the profile is r = t = m, sigma = 1, so f is the (2, -1)
    recurrence, f_n = n, h_{n-1} = gcd(n, n-1) = 1 and the bound is
    n > r+|b| = m(m+1).  For even m it is r = 2m, t = m/2, sigma = 4, so f is
    the (4, -4) recurrence, f_n = n*2^(n-1), h_{n-1} = 4^{floor((n-1)/2)}
    and f_n/h_{n-1} is n for odd n and 2n for even n; with B = r+|b| =
    m(m+2), even, the bound holds at every n >= B (at n = B as 2B > B) and
    fails at the odd n = B-1.  Either way the bound holds from n0 on and
    fails at n0-1, so n0 = m(m+1)+1 for odd m and m(m+2) for even m.  The
    bound first holds at n0 (odd m) or at the least even n > B/2 (even m),
    so the default window, 4 times that, is longer than n0 and n0 answers;
    an explicit horizon must still hold n0 <= horizon.  The scan would pass
    its 4096 terms from odd m = 65 and even m = 90 on.
    """
    double = l > 0 and l * l == -4 * b  # l = 2m, b = -m^2 with m > 0, a positive pair
    if horizon is not None and not double:
        _charge_terms(2 * horizon)
    _check_pair(l, b)
    if horizon is not None and horizon < 1:
        raise HorizonTooSmallError(f"need horizon >= 1, got {horizon}")
    if double:
        m = l // 2
        n0 = m * (m + 1) + 1 if m % 2 else m * (m + 2)
        if horizon is None or n0 <= horizon:
            return n0
    else:
        prof = gcd_profile(l, b)
        bound = prof.r + abs(b)
        hits = enumerate((q > bound for _, q, _ in _reduced_walk(l, b, prof)), start=1)
        drawn = run = 0  # terms drawn so far; hits in a row up to the last one
        if horizon is None:
            drawn = next((n for n, hit in islice(hits, 4096) if hit), None)
            if drawn is None:
                raise HorizonTooSmallError("growth bound not reached within 4096 terms")
            horizon, run = max(64, 4 * drawn), 1
        # a clean window [n0, n0+horizon] with n0 <= horizon ends by 2*horizon;
        # 2*horizon - drawn >= 0: a derived horizon is >= 4*drawn, a given one has drawn = 0
        for n, hit in islice(hits, 2 * horizon - drawn):
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


def _threshold_verdict(prof, b, fail_index):
    """The threshold theorem's verdict on a positive pair with profile prof
    and b outside {0, -1}, read off its first failing index: it applies iff
    prof.t = 1 (`failure_threshold_check`), and then the actual index is
    fail_index when that is at most the threshold, else None."""
    if prof.t != 1:
        return ThresholdVerdict(False, None, None)
    threshold = 5 if b > 0 else 6
    return ThresholdVerdict(True, threshold, fail_index if fail_index and fail_index <= threshold else None)


def failure_threshold_check(l, b):
    """Universal Gorenstein failure threshold when gcd(l,b) = gcd(l^2,b).

    Under that hypothesis the cone family stops being Gorenstein at
    dimension 5 (b > 0) or 6 (b < -1) at the latest; the verdict carries the
    predicted threshold and the actual first failing index, which the index
    recursion looks for only when the hypothesis holds.  Without the
    hypothesis the verdict is marked not applicable.

    The hypothesis is t = 1 in the pair's profile.  With r = gcd(l, b), r
    divides l^2 and b, so gcd(l^2, b) = r*gcd(l^2/r, b/r) = r*t, which
    equals gcd(l, b) = r iff t = 1 (r > 0 as b != 0).
    """
    if b in (0, -1):
        raise ValueError(f"need b outside {{0, -1}}, got b={b}")
    if not validate_positivity(l, b):
        raise ValueError(f"recurrence l={l}, b={b} does not stay positive")
    verdict = _threshold_verdict(gcd_profile(l, b), b, None)
    if verdict.applicable:
        verdict = verdict._replace(actual=gorenstein_fail_index(l, b, verdict.threshold))
    return verdict
