"""Brute-force lattice-point oracle for lecture hall cones.

Everything algebraic in this package can be cross-checked here against a
direct enumeration of the lattice points 0 <= x_1/s_1 <= ... <= x_n/s_n.
One walker does all of it.  It counts the points by a grading vector g,
counts[k] = #{x in the cone : g.x = k} for k up to a limit: weight_series
grades by total weight, g = (1, ..., 1), and ehrhart_counts by the last
coordinate, g = (0, ..., 0, 1).

A node is one value v of one coordinate x_i, given values for x_1..x_{i-1}.
Its children are the values of x_{i+1}, the ray x_{i+1} >= c_{i+1} =
ceil(v*s_{i+1}/s_i), computed in exact integers.  The least grade of any
completion of the node is w + sum_{j>i} g_j*c_j along the chain of ceilings
c_{j+1} = ceil(c_j*s_{j+1}/s_j), where w is the grade of x_1..x_i.  That
bound grows with v, so the first value whose bound passes the limit ends
the ray; the chain itself stops early at a zero ceiling (all later ones are
zero) or once the bound has passed the limit.  Pending rays sit on an
explicit stack with at most one entry per level: a node pushes the rest of
its own ray and then its first child.  So the depth of the cone costs no
Python recursion and the stack stays as small as a recursive walk.  Only
x_1..x_{n-1} are walked: for each value of x_{n-1} the whole ray of x_n is
added at once to a difference array, so the innermost level is one tight
loop with O(1) work per value.

Every value tried counts as a node against a budget, checked at every node,
inside the innermost loop too.  The environment variable LHCONE_BUDGET, a
positive integer, overrides the default cap; exceeding it raises
BudgetExceeded rather than letting an oversized instance spin forever.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import accumulate
from math import prod

from .exact_arith import (
    DensePoly,
    TruncatedSeries,
    is_palindromic,
    is_unimodal,
    monomial_complement,
    series_mul_poly,
)
from .gorenstein import lecture_hall_gorenstein

DEFAULT_NODE_BUDGET = 50_000_000


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


def _check_sequence(s):
    if len(s) < 1 or any(x < 1 for x in s):
        raise ValueError("need a nonempty positive sequence")


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


def weight_series(s, M, max_nodes=None):
    """Exact counts, by total weight 0..M, of the lattice points of the cone.

    The counts match the coefficients of the cone's generating function, so
    this is the oracle every closed form is tested against.
    """
    _check_sequence(s)
    if M < 0:
        raise ValueError(f"need M >= 0, got {M}")
    return TruncatedSeries(_graded_counts(s, (1,) * len(s), M, max_nodes), M)


def ehrhart_counts(s, T, max_nodes=None):
    """Lattice point counts i(t) = #{x in the cone : x_n <= t} for t = 0..T."""
    _check_sequence(s)
    if T < 0:
        raise ValueError(f"need T >= 0, got {T}")
    g = (0,) * (len(s) - 1) + (1,)
    return list(accumulate(_graded_counts(s, g, T, max_nodes)))


def denominator_exponents(s):
    """The tail sums d_i = s_i + ... + s_n."""
    _check_sequence(s)
    return [sum(s[i:]) for i in range(len(s))]


def numerator_H(s, max_nodes=None):
    """The numerator polynomial over prod_i (1 - q^{d_i}), d_i = s_i+...+s_n.

    Computed by enumerating the weight series through degree sum(d_i) and
    clearing the denominator.  That the result is a polynomial with
    nonnegative coefficients summing to prod(s) is a theorem, so those
    checks are assertions: tripping one means an enumeration bug, not bad
    input.
    """
    d = denominator_exponents(s)
    f = weight_series(s, sum(d), max_nodes)
    for e in d:
        f = series_mul_poly(f, monomial_complement(e))
    H = DensePoly(f.coeffs)
    assert all(c >= 0 for c in H.coeffs)
    assert H(1) == prod(s)
    return H


def detect_product_form(f, n):
    """Greedily factor a series as prod of n terms 1/(1 - q^{e_i}).

    Repeatedly takes the smallest positive degree with a nonzero
    coefficient as the next exponent and multiplies that factor out.
    Returns the sorted exponents, or None when the series is not such a
    product through its truncation degree (a negative coefficient showing
    up mid-extraction, leftovers after n factors, or fewer than n factors).
    """
    M = f.truncation_degree
    if f.coeffs[0] != 1:
        raise ValueError(f"series must start with 1, got {f.coeffs[0]}")
    residual = f
    exponents = []
    for _ in range(n):
        e = next((m for m in range(1, M + 1) if residual.coeffs[m] != 0), None)
        if e is None:
            return None
        if residual.coeffs[e] < 0:
            return None
        residual = series_mul_poly(residual, monomial_complement(e))
        if any(c < 0 for c in residual.coeffs):
            return None
        exponents.append(e)
    if any(residual.coeffs[m] != 0 for m in range(1, M + 1)):
        return None
    return sorted(exponents)


@dataclass(frozen=True)
class HStarVector:
    """Numerator of the Ehrhart series over (1 - x^{s_n})^{n+1}."""

    coeffs: DensePoly
    denominator_exponent: int
    power: int

    @property
    def symmetric(self):
        return is_palindromic(self.coeffs)

    @property
    def unimodal(self):
        return is_unimodal(self.coeffs)


def h_star(s, max_nodes=None):
    """The h*-vector of the rational polytope {x in the cone : x_n <= 1}.

    Ehrhart counts through T = (n+1)*s_n pin the numerator exactly; its
    positivity and the value at 1 are theorems and asserted as such.
    """
    _check_sequence(s)
    n = len(s)
    sn = s[-1]
    T = (n + 1) * sn
    f = TruncatedSeries(ehrhart_counts(s, T, max_nodes))
    for _ in range(n + 1):
        f = series_mul_poly(f, monomial_complement(sn))
    Q = DensePoly(f.coeffs)
    assert Q.degree < T
    assert all(c >= 1 for c in Q.coeffs)
    assert Q(1) == sn * prod(s)
    return HStarVector(Q, sn, n + 1)


@dataclass(frozen=True)
class CrossCheckReport:
    """Three routes to the same yes/no: the index recursion, palindromicity
    of the weight-series numerator, palindromicity of the h*-vector."""

    recursion_gorenstein: bool
    numerator_palindromic: bool
    hstar_palindromic: bool

    @property
    def agree(self):
        return self.recursion_gorenstein == self.numerator_palindromic == self.hstar_palindromic


def cross_check_gorenstein(s, budget=1000, max_nodes=None):
    """Run all three Gorenstein criteria on one instance and report them.

    The two enumerations are only attempted when their sizes sum(d_i) and
    (n+1)*s_n stay within the budget; anything larger raises
    BudgetExceeded.  The three verdicts agreeing is a theorem, so a
    disagreement in the report is a hard failure to be treated as a bug.
    """
    _check_sequence(s)
    D = sum(denominator_exponents(s))
    T = (len(s) + 1) * s[-1]
    if D > budget or T > budget:
        raise BudgetExceeded(
            f"instance too large for cross-check: sum(d_i)={D}, (n+1)*s_n={T}, budget={budget}"
        )
    recursion = lecture_hall_gorenstein(s).gorenstein
    numerator = is_palindromic(numerator_H(s, max_nodes))
    hstar = is_palindromic(h_star(s, max_nodes).coeffs)
    return CrossCheckReport(recursion, numerator, hstar)
