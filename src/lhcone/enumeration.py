"""Lattice points of lecture hall cones, counted by one transfer DP.

The cone of s, 0 <= x_1/s_1 <= ... <= x_n/s_n, is simplicial.  Its rays are
v_i = (0, ..., 0, s_i, ..., s_n), and x_j/s_j - x_{j-1}/s_{j-1} is the
coefficient of v_j, so the fundamental parallelepiped is

    Pi = {x in Z^n : x_j/s_j - x_{j-1}/s_{j-1} in [0, 1)},  x_0/s_0 = 0,

with prod(s) points.  Every cone point is one point of Pi plus a unique
nonnegative integer combination of the rays, so a numerator over the rays'
denominator is a sum over Pi.  `numerator_H` grades Pi by total weight,
g = (1, ..., 1); `h_star` grades it by the last coordinate,
g = (0, ..., 0, 1), and multiplies by 1 + t + ... + t^{s_n - 1}, which turns
the (1 - t)(1 - t^{s_n})^n denominator of the homogenized cone (rays (0, 1)
and (v_i, s_n)) into (1 - t^{s_n})^{n+1}.

Two identities tie the h*-vector Q to other counts.  The Ehrhart series of
{x in the cone : x_n <= 1} is Q(t)/(1 - t^{s_n})^{n+1}, so the counts
i(t) = #{x in the cone : x_n <= t} of `ehrhart_counts`, which the cone's
loop makes, are Q divided by n + 1 factors 1 - t^{s_n}, which Pi's loop
makes.  tests/test_enumeration.py checks it in
test_ehrhart_counts_are_the_hstar_vector_divided_out, and tests/test_cli.py
on what one hstar call prints in
test_hstar_dilate_counts_are_its_coefficients_divided_out.  The s-Eulerian
polynomial E, the h*-polynomial of the lattice polytope
{x in the cone : x_n <= s_n}, is Q's s_n-section,
E(y) = sum_{k=0..n} Q[k*s_n] y^k: that polytope is s_n times h_star's, and
the denominator is a series in t^{s_n}.  E is also Pi of s + (1,) graded by
its last coordinate, since the cone over that polytope is x_n <= s_n*y.
test_s_eulerian_polynomial_is_a_section_of_the_hstar_vector checks both,
and test_s_eulerian_polynomial_of_one_mod_k_sequences pins onemodk:2 and
onemodk:3 at n = 4 to the 1/k-Eulerian [1, 36, 60, 8] and [1, 81, 171, 27].

One engine, `_lattice`, does every lattice count.  It is a DP over
coordinates whose state is the value of x_j (Stanley's transfer-matrix
method, EC1 4.7).  A state carries the polynomial sum of q^{g.x} over the
prefixes x_1..x_j ending in it, packed into one int by Kronecker
substitution, one slot per coefficient, at least one bit wider than a bound
on every coefficient, so no slot carries into the next.  A slot of up to 8
bytes is widened to 1, 2, 4 or 8, the size of a C integer, so on a
little-endian host the answer is read back by one memoryview cast; a wider
slot, or any slot on a big-endian host, is read one at a time.  One setup
finds the range of each coordinate, charges the budget and fixes the slot
width; then Pi and the cone each run their own loop over the states of a
layer.

In Pi, given x_{j-1} = a, x_j runs over exactly s_j consecutive values from
ceil(a*s_j/s_{j-1}), and that start never decreases with a, so the values of
x_j are 0..top and each layer is one sliding-window sum over the previous
one: O(1) big-integer operations per state.  Pi's prod(s) points bound every
coefficient.  Each state stores its polynomial from its own least degree,
kept as a separate offset; the least degree never decreases along a layer,
so the window sum only ever shifts left to add and right to drop its zeroed
low slots.

The cone's loop counts the whole cone up to a grade limit,
counts[k] = #{x in the cone : g.x = k}: `weight_series` grades by total
weight and `ehrhart_counts` by the last coordinate.  In the cone the
predecessors of x_j = x are the prefix x_{j-1} <= floor(x*s_{j-1}/s_j), so
nothing ever leaves the window: the loop keeps a running prefix sum of the
previous layer's states, each shifted to its least degree as it joins, and
the state of x_j = x is that sum times q^{g_j*x}, stored from its least
degree g_j*x and cut at the limit, one bit_length telling both whether to
cut and how many slots to charge.  As in Pi, every stored state starts at
its least degree, so its stored slots are its charged ones.  Since x_j = x
forces x_k >= x*s_k/s_j for k >= j, x_j is at most
floor(limit*s_j / sum_{k>=j} g_k*s_k).  So a count costs O(1) big-integer
operations per value of a coordinate, not one step per lattice point:
under the weight grading a layer has at most limit states, under the
Ehrhart grading at most limit*s_j/s_n + 1.  The prefixes x_1..x_{n-1} lie
in the box of those ranges, whose size bounds every coefficient.

In both loops the last coordinate gets no states: each value a of x_{n-1}
adds its state times q^{ceil(a*s_n/s_{n-1})}, the least grade of x_n, to a
packed sum p.  Those degrees never decrease along the layer, so p is summed
in chunks as the states are made, none of them kept: a state whose degree
is at most a fixed span of slots past its chunk's first degree is shifted
into the chunk by one addition, any other starts a new chunk, and each
finished chunk joins a binary counter of runs of 1, 2, 4, ... chunks, where
it takes part in O(log(chunks)) additions.  A chunk is at most its widest
state plus the span long, so an addition costs O(state + span) words, and
the counter sees one entry per chunk, not per state.  In Pi, p times
1 + q + ... + q^{s_n - 1} is ((p << W*s_n) - p) // (2^W - 1), exact as
z^w - 1 = (z - 1)(1 + z + ... + z^{w-1}) at z = 2^W, and linear in time as
the divisor is one slot.  Each coefficient of the product sums s_n of a
nonnegative polynomial's, which sum to at most prod(s), so it fits its
slot, also after `h_star`'s second window.  In the cone, the ray of x_n is
the factor 1/(1 - q), one prefix sum at the end.

Every count is charged against one budget of nodes, where a node is one
packed slot of a state or one coefficient of the output.  A state's slots
are counted from its bit length and the slot width, and its highest slot
is nonzero, so the charge is the same at any width that holds the bound.
The output length and one slot per state are known in closed form and
charged before any work, as is the length of the h*-vector that `h_star`
builds with its second window, the rest of each state's slots as the state is
made.  The environment variable LHCONE_BUDGET, a positive integer read at
each count, overrides the default cap; exceeding it raises BudgetExceeded
rather than letting an oversized instance spin forever or exhaust memory.

That a numerator has nonnegative coefficients summing to the volume is a
theorem; `numerator_H` and `h_star` check it on every answer and raise
InvariantViolation, which `python -O` does not remove, if it fails.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from itertools import accumulate, compress, count, islice, repeat
from math import prod
from operator import sub

from .exact_arith import (
    DensePoly,
    TruncatedSeries,
    _divide_by_factors,
    is_palindromic,
    is_unimodal,
)
from .gorenstein import lecture_hall_gorenstein
from .sequences import InvariantViolation, _check_positive

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "BudgetExceeded",
    "CrossCheckReport",
    "HStarVector",
    "cross_check_gorenstein",
    "denominator_exponents",
    "detect_product_form",
    "ehrhart_counts",
    "h_star",
    "node_budget",
    "numerator_H",
    "product_form",
    "weight_series",
]

DEFAULT_NODE_BUDGET = 50_000_000
# the C integer types of a slot of 1, 2, 4 or 8 bytes
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
# the span of a chunk of the last layer's sum: a state whose degree is at
# most this many slots past the chunk's first degree is added into it.
# Summed over the 121 lattice calls of the benchmark's gf_exact pools (min
# of 30 runs each, the spans interleaved call by call), _lattice took 6.8,
# 6.4, 6.2, 6.2 and 6.3 ms at spans 16, 32, 64, 128 and 256, against 8.2 ms
# when each degree joined the binary counter on its own; numerator on ell:3
# at n = 10 took 0.34 to 0.52 s either way, ten runs each (Python 3.11.7,
# shared 2-core Xeon)
_CHUNK_SLOTS = 64


class BudgetExceeded(RuntimeError):
    pass


def node_budget():
    raw = os.environ.get("LHCONE_BUDGET")
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ValueError(f"LHCONE_BUDGET must be a positive integer, got {raw!r}")
    return budget


def _charge_terms(n):
    """Refuse to generate n terms past the node budget, before drawing any:
    each term a node, as `lhcone.gcd_structure` charges its walk of f and
    the CLI the --n terms of a spec."""
    budget = node_budget()
    if n > budget:
        raise BudgetExceeded(f"asked for {n} terms, past the budget of {budget} nodes")


def _flush(runs, chunk, co, W, state, o):
    """Push a finished chunk of the last layer's sum, packed from degree co,
    onto runs of 1, 2, 4, ... chunks, each packed from its first chunk's
    degree, and return the next chunk: state, from degree o.  Equal runs
    merge, so a chunk joins O(log(chunks)) additions."""
    k = 1
    while runs and runs[-1][0] == k:
        _, o0, p = runs.pop()
        chunk = p + (chunk << W * (co - o0))
        co, k = o0, 2 * k
    runs.append((k, co, chunk))
    return state, o


def _lattice(s, g, limit, charged=0, windows=1):
    """Lattice points of the cone of s graded by g, of 0s and 1s ending in 1.

    With limit None, the coefficients of sum_{x in Pi} q^{g.x} times
    (1 + q + ... + q^{s_n - 1})^(windows - 1); otherwise
    counts[k] = #{x in the cone : g.x = k} for k = 0..limit.  charged nodes,
    the slots a caller builds from the answer, count against the budget
    with the rest.
    """
    budget = node_budget()
    n = len(s)
    # the largest value of each coordinate and the output length, in closed
    # form, and a bound on every coefficient of a state
    if limit is None:
        # the largest x_{j-1} has the window of x_j that ends highest
        tops, top, sp = [], 0, 1
        for sj in s:
            top = (top * sj + sp - 1) // sp + sj - 1
            tops.append(top)
            sp = sj
        length = sum(gj * t for gj, t in zip(g, tops)) + 1
    else:
        # x_j = x forces x_k >= x*s_k/s_j for k >= j, so g.x >= x*tail/s_j
        tops, tail = [], 0
        for gj, sj in zip(reversed(g), reversed(s)):
            tail += gj * sj
            tops.append(limit * sj // tail)
        tops.reverse()
        length = limit + 1
    used = charged + length + sum(tops[:-1]) + n - 1
    if used > budget:
        raise BudgetExceeded(f"enumeration passed {budget} nodes")
    # Pi's prod(s) points bound its windows' coefficients; the cone's prefixes lie in a box
    bound = prod(s) if limit is None else prod(t + 1 for t in tops[:-1])
    B = (bound.bit_length() + 8) // 8
    if B <= 8:
        # widen to 1, 2, 4 or 8 bytes, the size of a C integer type
        B = 1 << (B - 1).bit_length()
    W = 8 * B
    sn, span = s[-1], _CHUNK_SLOTS
    # the states of x_{j-1}, packed polynomials, from the single value
    # x_0 = 0; the states of x_{n-1} are not kept but summed, shifted by the
    # least grade of their values of x_n, into chunk from degree co, and
    # finished chunks into runs.  With n = 1 the sum is the seed
    polys, sp, runs, chunk, co = [1], 1, [], int(n == 1), 0
    if limit is None:
        # each state from its own least degree, in offs
        offs = [0]
        for j in range(n - 1):
            sj, gj, m, last = s[j], g[j], len(polys), j == n - 2
            new_polys, new_offs = [], []
            # x_{j-1} = a has a window of s_j values of x_j from
            # ceil(a*s_j/s_{j-1}); predecessors rem..add-1 have x in their
            # window; nxt is the start of the window of add, drop that of rem
            acc, base, add, rem, nxt, drop = 0, offs[0], 0, 0, 0, 0
            for x in range(tops[j] + 1):
                while nxt <= x and add < m:
                    acc += polys[add] << W * (offs[add] - base)
                    add += 1
                    nxt = (add * sj + sp - 1) // sp
                if drop + sj <= x:
                    while drop + sj <= x:
                        acc -= polys[rem] << W * (offs[rem] - base)
                        rem += 1
                        drop = (rem * sj + sp - 1) // sp
                    acc >>= W * (offs[rem] - base)
                    base = offs[rem]
                used += (acc.bit_length() - 1) // W
                if used > budget:
                    raise BudgetExceeded(f"enumeration passed {budget} nodes")
                o = base + gj * x
                if last:
                    o += (x * sn + sj - 1) // sj
                    if o - co > span:
                        chunk, co = _flush(runs, chunk, co, W, acc, o)
                    else:
                        chunk += acc << W * (o - co)
                else:
                    new_polys.append(acc)
                    new_offs.append(o)
            polys, offs, sp = new_polys, new_offs, sj
    else:
        # x_{j-1} = a is a predecessor of every x_j from ceil(a*s_j/s_{j-1})
        # on, so the window never drops one: acc is a running prefix sum of
        # the predecessors' states, each shifted to its least degree
        # g_{j-1}*a.  The state of x_j = x is q^{g_j*x} times acc, so it is
        # stored as acc from that least degree, cut past the limit.  The cut
        # holds for every later x, whose least degree is no less, so acc
        # itself is cut.  Lowering a prefix's first nonzero coordinate by 1
        # keeps it in the cone and lowers its grade by 0 or 1, so the grades
        # of the prefixes ending in a state take every value from its least
        # one up: a cut state's top slot, at the limit, is nonzero
        gp = 0
        for j in range(n - 1):
            sj, gj, m, last = s[j], g[j], len(polys), j == n - 2
            new_polys = []
            acc, add, nxt = 0, 0, 0
            for x in range(tops[j] + 1):
                while nxt <= x and add < m:
                    acc += polys[add] << W * gp * add
                    add += 1
                    nxt = (add * sj + sp - 1) // sp
                o = gj * x
                keep, bits = W * (limit - o + 1), acc.bit_length()
                if bits > keep:
                    acc &= (1 << keep) - 1
                    bits = keep
                used += (bits - 1) // W
                if used > budget:
                    raise BudgetExceeded(f"enumeration passed {budget} nodes")
                if last:
                    o += (x * sn + sj - 1) // sj
                    if o - co > span:
                        chunk, co = _flush(runs, chunk, co, W, acc, o)
                    else:
                        chunk += acc << W * (o - co)
                else:
                    new_polys.append(acc)
            polys, sp, gp = new_polys, sj, gj
    # the last chunk and the runs, from the top down
    p, o = chunk, co
    while runs:
        _, o0, p0 = runs.pop()
        p = p0 + (p << W * (o - o0))
        o = o0
    if limit is None:
        # each window 1 + q + ... + q^{s_n - 1} is one exact division
        for _ in range(windows):
            p = ((p << W * sn) - p) // ((1 << W) - 1)
        head = length + (windows - 1) * (sn - 1)
    else:
        # 1/(1 - q) is a prefix sum at the end; terms past the limit are cut
        head = length
        p &= (1 << W * head) - 1
    packed = p.to_bytes(head * B, "little")
    del p  # only the bytes are read from here on: free the int before the unpack
    if B <= 8 and sys.byteorder == "little":
        # each slot is one C integer in native order: one cast reads them all
        coeffs = memoryview(packed).cast(_SLOT_FORMATS[B]).tolist()
    else:
        coeffs = [int.from_bytes(packed[k : k + B], "little") for k in range(0, head * B, B)]
    return coeffs if limit is None else list(accumulate(coeffs))


def weight_series(s, M):
    """Exact counts, by total weight 0..M, of the lattice points of the cone.

    The counts match the coefficients of the cone's generating function, so
    this is the oracle every closed form is tested against.
    """
    _check_positive(s)
    if M < 0:
        raise ValueError(f"need M >= 0, got {M}")
    return TruncatedSeries(_lattice(s, (1,) * len(s), M), M)


def ehrhart_counts(s, T):
    """Lattice point counts i(t) = #{x in the cone : x_n <= t} for t = 0..T."""
    _check_positive(s)
    if T < 0:
        raise ValueError(f"need T >= 0, got {T}")
    g = (0,) * (len(s) - 1) + (1,)
    return list(accumulate(_lattice(s, g, T)))


def denominator_exponents(s):
    """The tail sums d_i = s_i + ... + s_n, in one pass."""
    _check_positive(s)
    return list(accumulate(reversed(s)))[::-1]


def numerator_H(s):
    """The numerator polynomial over prod_i (1 - q^{d_i}), d_i = s_i+...+s_n.

    It is sum_{x in Pi} q^{|x|}, the fundamental parallelepiped graded by
    total weight.  That it has nonnegative coefficients summing to prod(s) is
    a theorem, checked on every answer: an InvariantViolation means a bug,
    not bad input.
    """
    _check_positive(s)
    H = DensePoly(_lattice(s, (1,) * len(s), None))
    if sum(H.coeffs) != prod(s) or min(H.coeffs) < 0:
        raise InvariantViolation("numerator is not nonnegative with value prod(s) at 1")
    return H


def _greedy_exponents(c, n):
    """The exponents e_1 <= ... <= e_n of the list c, with c[0] = 1, as a
    product of n terms 1/(1 - q^{e_i}) through its last degree, or None.

    Repeatedly takes the smallest positive degree with a nonzero
    coefficient as the next exponent and multiplies that factor out, in
    place over c.  None means a negative coefficient showing up
    mid-extraction, leftovers after n factors, or fewer than n factors.
    """
    exponents = []
    # taking out 1/(1 - q^e) leaves the degrees below e alone, so the next
    # exponent is never smaller than this one
    e = 1
    for _ in range(n):
        e = next(compress(count(e), islice(c, e, None)), None)
        if e is None:
            return None
        # times 1 - q^e, each entry from the old values; a product of the
        # remaining factors has no negative coefficient, so stop early
        # (tail[0] = c[e] - c[0] = c[e] - 1 is negative if c[e] is)
        tail = list(map(sub, islice(c, e, None), c))
        if min(tail) < 0:
            return None
        c[e:] = tail
        exponents.append(e)
    return None if any(islice(c, 1, None)) else exponents


def detect_product_form(f, n):
    """Greedily factor a truncated series as prod of n terms 1/(1 - q^{e_i}).

    Runs `product_form`'s greedy on a copy of f's coefficients.  Returns the
    sorted exponents, or None when the series is not such a product through
    its truncation degree.  The verdict holds only through that degree: a
    series cut too low can miss an exponent or hide a leftover, and
    `product_form` decides a cone exactly.
    """
    if f.coeffs[0] != 1:
        raise ValueError(f"series must start with 1, got {f.coeffs[0]}")
    return _greedy_exponents(list(f.coeffs), n)


def product_form(s):
    """The exponents of the cone's weight series as prod_i 1/(1 - q^{e_i}).

    Returns the sorted e_1..e_n, or None when the series has no such form.
    The verdict is exact.  A product form makes the cone Gorenstein
    (Stanley), so the index recursion answers first and a cone it rejects
    is None at once, with no enumeration.  Otherwise, with H the numerator
    over prod_i (1 - q^{d_i}) and D = sum(d_i), the series through degree D
    is divided out in one list, which the greedy of `detect_product_form`
    factors in place, and its exponents are accepted only when
    deg H + sum(e_i) = D: then H * prod(1 - q^{e_i}) - prod(1 - q^{d_i})
    has degree at most D and vanishes through D, so it is zero.  Every e_i
    is at most D, so the greedy misses none.  The division costs n*(D+1)
    nodes, charged before any work under LHCONE_BUDGET, the budget of
    `numerator_H`.

    A positive answer must have sum(e_i) = |c|, c the Gorenstein point, a
    theorem checked on every one: F(1/q) = (-1)^n q^{|c|} F(q) on a
    Gorenstein cone, and F = prod 1/(1 - q^{e_i}) gives
    F(1/q) = (-1)^n q^{sum(e_i)} F(q).
    """
    _check_positive(s)
    point = lecture_hall_gorenstein(s).point
    if point is None:
        return None
    d = denominator_exponents(s)
    D = sum(d)
    budget = node_budget()
    if len(s) * (D + 1) > budget:
        raise BudgetExceeded(f"enumeration passed {budget} nodes")
    H = numerator_H(s)
    degree, series = H.degree, [*H.coeffs, *repeat(0, D - H.degree)]
    del H  # only the list is divided from here on
    exponents = _greedy_exponents(_divide_by_factors(series, d), len(s))
    if exponents is None or degree + sum(exponents) != D:
        return None
    if sum(exponents) != sum(point):
        raise InvariantViolation(
            f"product form exponents sum to {sum(exponents)}, the Gorenstein point to {sum(point)}"
        )
    return exponents


class HStarVector(namedtuple("HStarVector", "coeffs denominator_exponent power")):
    """Numerator of the Ehrhart series over (1 - x^{s_n})^{n+1}: the
    DensePoly coeffs over (1 - x^denominator_exponent)^power."""

    __slots__ = ()

    @property
    def symmetric(self):
        return is_palindromic(self.coeffs)

    @property
    def unimodal(self):
        return is_unimodal(self.coeffs)


def h_star(s):
    """The h*-vector of the rational polytope {x in the cone : x_n <= 1}.

    It is sum_{x in Pi} t^{x_n} times 1 + t + ... + t^{s_n - 1}: the
    homogenized cone has rays (0, 1) and (v_i, s_n), and the second factor
    brings its denominator to (1 - t^{s_n})^{n+1}.  Its degree below
    (n+1)*s_n, its positivity and its value s_n*prod(s) at 1 are theorems,
    checked on every answer.  Each coefficient sums s_n of those of the sum
    over Pi, so the slots of Pi hold the second factor's packed product.
    """
    _check_positive(s)
    n = len(s)
    sn = s[-1]
    g = (0,) * (n - 1) + (1,)
    # the second window's answer, of degree below (n+1)*s_n, is charged
    # with the lattice before it runs
    Q = DensePoly(_lattice(s, g, None, (n + 1) * sn, 2))
    if sum(Q.coeffs) != sn * prod(s) or min(Q.coeffs) < 1 or Q.degree >= (n + 1) * sn:
        raise InvariantViolation(
            "h*-vector is not positive of degree < (n+1)*s_n with value s_n*prod(s) at 1"
        )
    return HStarVector(Q, sn, n + 1)


class CrossCheckReport(
    namedtuple("CrossCheckReport", "recursion_gorenstein numerator_palindromic hstar_palindromic")
):
    """Three routes to the same yes/no: the index recursion, palindromicity
    of the weight-series numerator, palindromicity of the h*-vector."""

    __slots__ = ()

    @property
    def agree(self):
        return self.recursion_gorenstein == self.numerator_palindromic == self.hstar_palindromic


def cross_check_gorenstein(s):
    """Run all three Gorenstein criteria on one instance and report them.

    Both lattice counts run under LHCONE_BUDGET and raise BudgetExceeded
    past it.  The three verdicts agreeing is a theorem, so a disagreement in
    the report is a hard failure to be treated as a bug.
    """
    _check_positive(s)
    recursion = lecture_hall_gorenstein(s).gorenstein
    numerator = is_palindromic(numerator_H(s))
    hstar = is_palindromic(h_star(s).coeffs)
    return CrossCheckReport(recursion, numerator, hstar)
