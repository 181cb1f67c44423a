"""Independent answer checks for the benchmark.

Nothing here imports lhcone: every expected value is rebuilt from the
definitions (own sequence recurrences, an own lattice-point counter, an own
triangular solver) or is a theorem property the answer must have.  A check
returns normally when the answer is right and raises Mismatch otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, gcd, lcm, prod


class Mismatch(ValueError):
    """An answer of the program disagrees with the independent check."""


def require(cond, message):
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------- sequences


def kl_terms(k, l, n):
    """a_1..a_n of a_0 = 0, a_1 = 1, a_i = c_i*a_{i-1} - a_{i-2}, c_i = l (i even), k (i odd)."""
    a = [0, 1]
    for i in range(2, n + 1):
        a.append((l if i % 2 == 0 else k) * a[-1] - a[-2])
    return a[1 : n + 1]


def rec_terms(l, b, n):
    """s_1..s_n of s_0 = 0, s_1 = 1, s_j = l*s_{j-1} + b*s_{j-2}."""
    s = [0, 1]
    for _ in range(n - 1):
        s.append(l * s[-1] + b * s[-2])
    return s[1 : n + 1]


def onemodk_terms(k, n):
    return [1 + i * k for i in range(n)]


def kl_exponents(k, l, n):
    """Exponents of the (k, l) lecture hall product formula: a_i + b_{i-1}
    for n even and b_i + a_{i-1} for n odd, a the (k, l)- and b the
    (l, k)-sequence, both with a_0 = b_0 = 0."""
    a = [0] + kl_terms(k, l, n)
    b = [0] + kl_terms(l, k, n)
    if n % 2:
        a, b = b, a
    return sorted(a[i] + b[i - 1] for i in range(1, n + 1))


# ------------------------------------------------------------ series and DP


def product_series(exponents, M):
    """prod 1/(1 - q^e) through degree M by one stride prefix-sum pass per e."""
    c = [1] + [0] * M
    for e in exponents:
        for m in range(e, M + 1):
            c[m] += c[m - e]
    return c


def divide_series(coeffs, exponents, M):
    """coeffs / prod(1 - q^e) through degree M."""
    c = [coeffs[m] if m < len(coeffs) else 0 for m in range(M + 1)]
    for e in exponents:
        for m in range(e, M + 1):
            c[m] += c[m - e]
    return c


def weight_counts(s, M):
    """Number of lattice points of 0 <= x_1/s_1 <= ... <= x_n/s_n of each
    total weight 0..M, by a DP over coordinates.

    The state after coordinate i is, for each value v of x_i, the weight
    polynomial of the prefix x_1..x_i, packed into one int with a slot of
    `width` bits per degree.  Given x_i = v the next coordinate admits
    exactly the values v' with v*s_{i+1} <= v'*s_i, so the state for v' is a
    prefix sum over v shifted by v' slots.
    """
    n = len(s)
    # a slot must hold the number of nonnegative n-vectors of weight M
    width = comb(M + n, n).bit_length() + 1
    mask = (1 << (width * (M + 1))) - 1
    state = [1 << (width * v) for v in range(M + 1)]
    for i in range(1, n):
        prefix, acc = [], 0
        for f in state:
            acc += f
            prefix.append(acc)
        state = [
            (prefix[min(M, v * s[i - 1] // s[i])] << (width * v)) & mask for v in range(M + 1)
        ]
    total = sum(state)
    slot = (1 << width) - 1
    return [(total >> (width * m)) & slot for m in range(M + 1)]


def ehrhart_counts(s, T):
    """i(t) = #{x in the cone : x_n <= t} for t = 0..T, by a DP from x_n down."""
    n = len(s)
    sn = s[-1]
    # ways[v] = number of choices of x_1..x_i given x_i = v
    top = [T * s[i] // sn for i in range(n)]
    ways = [1] * (top[0] + 1)
    for i in range(1, n):
        prefix, acc = [], 0
        for w in ways:
            acc += w
            prefix.append(acc)
        ways = [prefix[v * s[i - 1] // s[i]] for v in range(top[i] + 1)]
    out, acc = [], 0
    for t in range(T + 1):
        acc += ways[t]
        out.append(acc)
    return out


def mul_one_minus(coeffs, exponents):
    """coeffs * prod(1 - q^e), exactly."""
    c = list(coeffs) + [0] * sum(exponents)
    for e in exponents:
        for m in range(len(c) - 1, e - 1, -1):
            c[m] -= c[m - e]
    return _strip(c)


def _strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def palindromic(c):
    return list(c) == list(reversed(c))


# -------------------------------------------------------------- Gorenstein


def gorenstein_prefix(s):
    """Run c_1 = 1, c_j = (c_{j-1}*s_j + gcd(s_j, s_{j-1})) / s_{j-1}.

    Returns (point, None, None) when every c_j is an integer, else the
    integer prefix, the first failing index and the rational value there.
    """
    c = [1]
    for j in range(2, len(s) + 1):
        x = Fraction(c[-1] * s[j - 1] + gcd(s[j - 1], s[j - 2]), s[j - 2])
        if x.denominator != 1:
            return c, j, x
        c.append(int(x))
    return c, None, None


def check_gorenstein_point(s, point):
    """The point satisfies c_1 = 1 and c_j s_{j-1} = c_{j-1} s_j + gcd(s_j, s_{j-1})."""
    require(len(point) == len(s), f"point has {len(point)} coordinates, expected {len(s)}")
    require(point[0] == 1, f"point starts with {point[0]}, expected 1")
    for j in range(2, len(s) + 1):
        lhs = point[j - 1] * s[j - 2]
        rhs = point[j - 2] * s[j - 1] + gcd(s[j - 1], s[j - 2])
        require(lhs == rhs, f"point fails the recursion at index {j}")


def check_gorenstein_verdict(s, gorenstein, point=None, fails_at=None, witness=None):
    """A positive verdict is checked as a certificate; a negative one must
    name the first index where the forced value is not an integer."""
    if gorenstein:
        check_gorenstein_point(s, point)
        return
    c, j, x = gorenstein_prefix(s)
    require(j is not None, "negative verdict on a cone whose recursion stays integral")
    require(fails_at == j, f"fails_at {fails_at}, the recursion first fails at {j}")
    require(Fraction(witness) == x, f"witness {witness}, expected {x}")
    require(x.denominator != 1, "witness is an integer")


def gorenstein_verdict(s):
    return gorenstein_prefix(s)[1] is None


def ell_point(s):
    """The closed-form Gorenstein point (s_1, s_1+s_2, ..., s_{n-1}+s_n) of an ell-sequence."""
    return [s[0]] + [s[i - 1] + s[i] for i in range(1, len(s))]


# ---------------------------------------------------- generating functions


DP_CHECK_DEGREE = 40


def check_numerator(s, H, kl_exps=None):
    """H is the numerator over prod(1 - q^{d_i}), d_i = s_i + ... + s_n."""
    d = [sum(s[i:]) for i in range(len(s))]
    require(H and H[-1] != 0, "numerator has trailing zeros or is empty")
    require(all(c >= 0 for c in H), "numerator has a negative coefficient")
    require(sum(H) == prod(s), f"H(1) = {sum(H)}, expected prod(s) = {prod(s)}")
    require(len(H) - 1 <= sum(d), "numerator degree exceeds sum(d_i)")
    M = min(sum(d), DP_CHECK_DEGREE)
    require(divide_series(H, d, M) == weight_counts(s, M), f"H/prod(1-q^d) disagrees with the lattice count through degree {M}")
    if kl_exps is not None:
        require(mul_one_minus(H, kl_exps) == mul_one_minus([1], d), "H*prod(1-q^e) != prod(1-q^d) for the (k,l) exponents")
    require(palindromic(H) == gorenstein_verdict(s), "numerator palindromicity disagrees with the Gorenstein recursion")


def check_hstar(s, h):
    """h is the h*-vector over (1 - x^{s_n})^{n+1}."""
    n, sn = len(s), s[-1]
    T = (n + 1) * sn
    require(h and len(h) - 1 < T, "h* is empty or its degree is not below (n+1)*s_n")
    require(all(c >= 1 for c in h), "h* has a coefficient below 1")
    require(sum(h) == sn * prod(s), f"h*(1) = {sum(h)}, expected s_n*prod(s) = {sn * prod(s)}")
    T0 = min(T, DP_CHECK_DEGREE)
    require(divide_series(h, [sn] * (n + 1), T0) == ehrhart_counts(s, T0), f"h*/(1-x^s_n)^(n+1) disagrees with the lattice count through t={T0}")
    require(palindromic(h) == gorenstein_verdict(s), "h* symmetry disagrees with the Gorenstein recursion")


def check_series(s, M, coeffs, kl_exps=None):
    """A weight series through degree M: by the product formula when the
    exponents are known, else by the DP lattice counter."""
    require(len(coeffs) == M + 1, f"{len(coeffs)} coefficients for M={M}")
    expected = product_series(kl_exps, M) if kl_exps is not None else weight_counts(s, M)
    if coeffs != expected:
        m = next(m for m in range(M + 1) if coeffs[m] != expected[m])
        raise Mismatch(f"coefficient of q^{m} is {coeffs[m]}, expected {expected[m]}")


def product_verdict_status(exps, M, found):
    """'ok' when the exponents found are the true ones; 'failed' when they
    are not and the largest exponent lies beyond the truncation M, which is
    the known defect of deciding from the truncated series; else Mismatch."""
    if found is not None and sorted(found) == exps:
        return "ok"
    require(max(exps) > M, f"product exponents {found}, expected {exps}")
    return "failed"


# ------------------------------------------------------------- CLI answers


def _ints(values):
    return [int(v) for v in values]


def check_gor_cli(s, out, rc, closed_form=False):
    p = json.loads(out)
    require(p["n"] == len(s), f"n = {p['n']}, expected {len(s)}")
    require(rc == (0 if p["gorenstein"] else 1), f"exit code {rc} for gorenstein={p['gorenstein']}")
    point = _ints(p["point"]) if p["gorenstein"] else None
    check_gorenstein_verdict(s, p["gorenstein"], point, p.get("fails_at"), p.get("witness"))
    if closed_form:
        require(p["gorenstein"] and point == ell_point(s), "ell-sequence point differs from the closed form")


def gcd_profile(l, b):
    """(r, t, sigma): r = gcd(l, b), t = gcd(l^2/r, b/r), sigma = r/t."""
    r = gcd(l, b)
    t = gcd(l * l // r, b // r)
    return r, t, r // t


def check_profile_fields(l, b, p):
    r, t, sigma, gamma, beta = (int(p[k]) for k in ("r", "t", "sigma", "gamma", "beta"))
    require((r, t, sigma) == gcd_profile(l, b), f"profile (r, t, sigma) = {(r, t, sigma)}, expected {gcd_profile(l, b)}")
    require(l == sigma * t * gamma and b == sigma * t * t * beta, "l != sigma*t*gamma or b != sigma*t^2*beta")
    require(gcd(gamma, beta) == 1, "gamma and beta are not coprime")


def check_classify_cli(l, b, n, horizon, out, rc):
    p = json.loads(out)
    s = rec_terms(l, b, n)
    require(rc == 0, f"exit code {rc}")
    require(_ints(p["terms"]) == s, "terms differ from the recurrence")
    point = _ints(p["point"]) if p["gorenstein"] else None
    check_gorenstein_verdict(s, p["gorenstein"], point, p.get("fails_at"), p.get("witness"))
    check_profile_fields(l, b, p["profile"])
    _, first_fail, _ = gorenstein_prefix(rec_terms(l, b, horizon))
    require(p["fail_index"] == first_fail, f"fail_index {p['fail_index']}, expected {first_fail}")
    coprime = all(gcd(s[i], s[i + 1]) == 1 for i in range(n - 1))
    ug = p["u_generation"]
    if not coprime:
        require(ug["status"] == "hypothesis-violated", f"u_generation {ug['status']} with a shared factor")
    elif ug["status"] == "recognized":
        u = _ints(ug["u"])
        regen = [s[0], u[0] * s[0] - 1] if n > 1 else [s[0]]
        for i in range(2, n):
            regen.append(u[i - 1] * regen[-1] - regen[-2])
        require(regen == s, "recognized u does not regenerate the terms")
    else:
        require(ug["status"] == "not-u-generated", f"u_generation {ug['status']}")
        nums = [s[1] + 1] + [s[i] + s[i - 2] for i in range(2, n)]
        require(any(x % s[i] or x < s[i] for i, x in enumerate(nums)), "terms are u-generated but were not recognized")
    tc = p.get("threshold_check")
    if b != -1:
        applicable = gcd(l, b) == gcd(l * l, b)
        require(tc["applicable"] == applicable, "threshold_check applicability")
        if applicable:
            threshold = 5 if b > 0 else 6
            _, j, _ = gorenstein_prefix(rec_terms(l, b, threshold))
            require((tc["threshold"], tc["actual"]) == (threshold, j), f"threshold_check {tc}, expected ({threshold}, {j})")


def check_gcd_table_cli(l, b, n, out):
    p = json.loads(out)
    _, t, sigma = gcd_profile(l, b)
    s = rec_terms(l, b, n + 1)
    require(len(p["rows"]) == n, f"{len(p['rows'])} rows, expected {n}")
    for i, row in enumerate(p["rows"], start=1):
        g, norm, u = int(row["gcd"]), int(row["normalizer"]), int(row["u"])
        require(row["n"] == i and g == gcd(s[i], s[i - 1]), f"row {i}: gcd {g}, expected {gcd(s[i], s[i - 1])}")
        low = t ** (i - 1) * sigma ** (i // 2)
        # divisibility sandwich t^{n-1} sigma^{n//2} | gcd | t^n sigma^{n//2}
        require(norm == low and g % low == 0 and (low * t) % g == 0, f"row {i}: divisibility sandwich fails")
        require(u * norm == g and t % u == 0, f"row {i}: u_n = {u} does not divide t = {t}")


def check_profile_cli(l, b, n, out):
    p = json.loads(out)
    check_profile_fields(l, b, p)
    _, t, sigma = gcd_profile(l, b)
    f = _ints(p["f_sequence"])
    s = rec_terms(l, b, n)
    require(len(f) == n, f"f-sequence has {len(f)} terms, expected {n}")
    require(all(s[j] == t**j * f[j] for j in range(n)), "s_j != t^{j-1} f_j")
    # with f[0] = f_1: gcd(f_{j+1}, f_j) = sigma^floor(j/2)
    require(all(gcd(f[j], f[j - 1]) == sigma ** (j // 2) for j in range(1, n)), "consecutive f-terms have the wrong gcd")


def growth_ok(l, b, N):
    """good[n] for n = 1..N: s_n / (t^{n-2} sigma^{floor((n-1)/2)}) > t(r + |b|)."""
    r, t, sigma = gcd_profile(l, b)
    threshold = t * (r + abs(b))
    s = rec_terms(l, b, N)
    # s_n * t^2 > threshold * t^n * sigma^floor((n-1)/2), free of fractions
    good = [False] + [s[n - 1] * t * t > threshold * t**n * sigma ** ((n - 1) // 2) for n in range(1, N + 1)]
    return good, threshold


def default_n0_horizon(l, b):
    """max(64, 4 * the first n where the growth bound holds), as documented for find_n0."""
    N = 64
    while True:
        good, _ = growth_ok(l, b, N)
        if True in good:
            return max(64, 4 * good.index(True))
        N *= 2


def check_n0_cli(l, b, horizon, out):
    p = json.loads(out)
    n0 = p["n0"]
    if horizon is None:
        horizon = default_n0_horizon(l, b)
    good, threshold = growth_ok(l, b, 2 * horizon + 1)
    require(int(p["threshold"]) == threshold, f"threshold {p['threshold']}, expected {threshold}")
    require(all(good[n0 : n0 + horizon + 1]), f"window [{n0}, {n0 + horizon}] breaks the growth bound")
    for m in range(1, n0):
        require(not all(good[m : m + horizon + 1]), f"n0 = {n0} is not minimal: {m} works")


def check_matrix_cli(rows, out, rc):
    """For a lower-triangular A with row generators q: a Gorenstein point
    must satisfy A*c = q in integers; otherwise the first non-integer entry
    of the forward-substitution solution is the witness."""
    p = json.loads(out)
    q = []
    for row in rows:
        L = lcm(*(x.denominator for x in row))
        q.append(Fraction(gcd(*(int(x * L) for x in row)), L))
    require(rc == (0 if p["gorenstein"] else 1), f"exit code {rc}")
    if p["gorenstein"]:
        c = _ints(p["point"])
        for i, row in enumerate(rows):
            require(sum(a * x for a, x in zip(row, c)) == q[i], f"row {i + 1} of A*c differs from q")
        return
    c = []
    for i, row in enumerate(rows):
        c.append((q[i] - sum(row[j] * c[j] for j in range(i))) / row[i])
    first = next(i for i, x in enumerate(c) if x.denominator != 1)
    require(p["fails_at"] == first + 1, f"fails_at {p['fails_at']}, expected {first + 1}")
    require(Fraction(p["witness"]) == c[first], f"witness {p['witness']}, expected {c[first]}")
