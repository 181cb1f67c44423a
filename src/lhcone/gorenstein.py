"""Gorenstein decisions for lecture hall cones and general simple cones.

The cone of a positive sequence s is cut out by x_1/s_1 >= 0 and
x_j/s_j - x_{j-1}/s_{j-1} >= 0; it is Gorenstein exactly when one integer
point c satisfies c_1 = 1 and c_j*s_{j-1} = c_{j-1}*s_j + gcd(s_j, s_{j-1})
for 2 <= j <= n.  The decision runs that recursion and reports either the
point or the first index where integrality breaks, with the rational value
that was forced there.  It draws the terms one at a time and stops at the
first failure, so it also runs on the unending terms of an (l, b) family,
as `lhcone gor` runs it on rec:l,b with b not in (0, -1), n terms at most.

Each step takes the greedy interior value c_j = floor(c_{j-1}*s_j/s_{j-1}) + 1
and certifies it without a gcd: g = c_j*s_{j-1} - c_{j-1}*s_j is a Bezout
combination of s_j and s_{j-1}, so their gcd divides g, and g dividing both
makes it the gcd.  Only a failing step computes the gcd, for its witness.
A step with s_j = u*s_{j-1} - s_{j-2}, as on ell-sequences, is always
integral and takes c_j = u*c_{j-1} - c_{j-2}, in O(digits).

A point has one walk wherever the multipliers u of the terms are known: of
a spec that fixes them (`SequenceSpec.multipliers`), ell, kl, onemodk and
rec:l,-1 (Gorenstein for every n by the source paper's theorem) and u:
specs, whose terms the same walk checks for positivity, two terms at a
time, or of terms whose every step is a u-step.  The point is the u-walk
(`_two_term_walk` with q = -1) from the seeds (0, 1), in ints, which walks
the terms from (1, s_1); `kl_product_exponents` is the same walk, and so,
with q = b, are the terms of an (l, b) family.  An (l, 0) family's point
is the walk with q = -l (`gorenstein_fail_index`).  The index recursion
decides every other sequence; `u_generated_point` checks the two agree.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .sequences import (
    InvariantViolation,
    _check_positive,
    _two_term_walk,
    generate_from_u,
    recurrence_terms,
)

__all__ = [
    "GorensteinResult",
    "SingularMatrixError",
    "gorenstein_fail_index",
    "lecture_hall_gorenstein",
    "parse_matrix",
    "simple_cone_gorenstein",
    "u_generated_point",
]


class SingularMatrixError(ValueError):
    pass


class GorensteinResult(namedtuple("GorensteinResult", "point fails_at witness")):
    """The point (a tuple) of a Gorenstein cone, else None with the first
    failing index and the rational value forced there (a Fraction)."""

    __slots__ = ()

    @property
    def gorenstein(self):
        return self.point is not None


def lecture_hall_gorenstein(s):
    """Decide the Gorenstein property of the cone of s by the index recursion.

    c_1 = 1 and c_j = (c_{j-1}*s_j + gcd(s_j, s_{j-1})) / s_{j-1}; the cone
    is Gorenstein iff every c_j is an integer, and then (c_1, ..., c_n) is
    the Gorenstein point.
    """
    _check_positive(s)
    return _index_recursion(s)


def _index_recursion(terms):
    """The recursion over positive terms, drawn only up to the first failure.

    A step divides c_{j-1}*s_j by s_{j-1} once, giving quotient q and
    remainder r, and takes g = s_{j-1} - r, so 0 < g <= s_{j-1}.  Then
    (q+1)*s_{j-1} - c_{j-1}*s_j = g is a Bezout identity: the gcd divides g.
    If g divides s_j and s_{j-1}, g is the gcd and c_j = q + 1.  Otherwise
    the step is not integral, since an integral c_j forces the gcd, which
    lies in (0, s_{j-1}], to be congruent to -r mod s_{j-1}, i.e. equal to g.

    That division costs O(digits^2).  A u-step, s_j = u*s_{j-1} - s_{j-2}
    as on every step of an ell-sequence, needs none and cannot fail, which
    is the source paper's reason why ell-sequences are Gorenstein: s_j is
    -s_{j-2} mod s_{j-1}, so gcd(s_j, s_{j-1}) = gcd(s_{j-1}, s_{j-2}) = g,
    and the identity of the step before, c_{j-1}*s_{j-2} - c_{j-2}*s_{j-1}
    = g, turns (c_{j-1}*s_j + g)/s_{j-1} into u*c_{j-1} - c_{j-2}.  Finding
    u is one division with a small quotient, O(digits).  The virtual
    s_0 = 1, c_0 = 0 satisfy the identity with g = 1, so the first step is
    no exception.
    """
    terms = iter(terms)
    pprev, prev = 1, next(terms)
    c = [0, 1]
    for j, cur in enumerate(terms, start=2):
        u, t = divmod(cur + pprev, prev)
        if t:
            q, r = divmod(c[-1] * cur, prev)
            g = prev - r
            if prev % g or cur % g:
                return GorensteinResult(None, j, Fraction(c[-1] * cur + gcd(cur, prev), prev))
            c.append(q + 1)
        else:
            c.append(u * c[-1] - c[-2])
        pprev, prev = prev, cur
    return GorensteinResult(tuple(c[1:]), None, None)


def gorenstein_fail_index(l, b, horizon=None):
    """Smallest n (at most horizon, if given) where the (l, b) cone stops
    being Gorenstein, or None.

    A returned index holds for every larger n too: once the recursion leaves
    the integers it never comes back.  With no horizon the answer is exact:
    the cone is Gorenstein for every n iff b = -1 (the source paper) or
    b = 0 (c_j = l*c_{j-1} + 1), and any other pair fails at some n, which
    the recursion runs to.  So once the pair is checked, b = -1 and b = 0
    answer None at any horizon, before a term is drawn.

    With b = 0 the terms are l^{j-1}, so the recursion's step is
    c_j = (c_{j-1}*l^{j-1} + l^{j-2}) / l^{j-2} = l*c_{j-1} + 1, and so
    c_{j+1} = (l+1)*c_j - l*c_{j-1} from (c_0, c_1) = (0, 1): the two-term
    walk (`_two_term_walk`) over l+1, l+1, ... with q = -l, which
    `lhcone gor` and `lhcone classify` print for rec:l,0 with no recursion.
    """
    if horizon is not None and horizon < 1:
        raise ValueError(f"need horizon >= 1, got {horizon}")
    terms = recurrence_terms(l, b)
    if b in (0, -1):
        return None
    if horizon is not None:
        # islice takes no stop past sys.maxsize, more terms than a run can draw
        terms = islice(terms, min(horizon, sys.maxsize))
    return _index_recursion(terms).fails_at


def u_generated_point(u, n, s1=1):
    """Gorenstein point of a u-generated sequence: c_1 = 1, c_2 = u_1,
    c_{i+1} = u_i*c_i - c_{i-1}, which is the u-walk (`_two_term_walk` with
    q = -1) from c_0 = 0, c_1 = 1.

    The sequence itself must exist and stay positive through n, first term
    s1 (`generate_from_u`, the checks of `SequenceSpec.multipliers` and the
    walk of the terms); the resulting point is checked against the point of
    the index recursion on those terms; a mismatch raises InvariantViolation.

    By `_index_recursion`'s docstring the walk is the Gorenstein point of any
    positive terms whose every step, from s_0 = 1 on, is a u-step with these
    u.  The families whose kind fixes u (`SequenceSpec.multipliers`), ell:l
    and rec:l,-1, kl:k,l, onemodk:k, are such terms, Gorenstein for every n:
    - their terms are the walk s_{i+1} = u_i*s_i - s_{i-1} with these u from
      the virtual s_0 = 1 and s_1 = 1 (`SequenceSpec.realize`), the first
      step included, where s_2 = l = (l+1)*1 - 1 (k+1 = (k+2)*1 - 1 for
      onemodk);
    - the terms are positive: u_1 is l+1 >= 3 (k, l >= 2, and rec:l,-1
      stays positive only for l >= 2) or k+2 >= 3 (k >= 1), and every later
      u_i is k, l or 2, so at least 2.  Then
      s_{i+1} - s_i = (u_i - 2)*s_i + (s_i - s_{i-1}) >= s_i - s_{i-1}, and
      from s_2 - s_1 = u_1 - 2 >= 1 on the terms increase from s_1 = 1.  The
      same argument from c_1 - c_0 = 1 makes the entries increase.
    A u: spec is such terms too once the walk of its terms finds them
    positive: `lhcone gor` walks its point from its own u and holds no term.
    `lhcone.cli._walk` runs the same walk for printing, a piece at a time.
    """
    s = generate_from_u(u, s1, n)
    point = tuple(_two_term_walk(u[: n - 1], -1, 0, 1))
    if lecture_hall_gorenstein(s).point != point:
        raise InvariantViolation("u-generated point is not the point of the index recursion")
    return point


_ZERO = Fraction(0)  # every "0" entry parse_matrix reads: most entries of a sparse matrix


def simple_cone_gorenstein(rows):
    """Gorenstein decision for any full-dimensional simple cone.

    Row j of the (invertible) matrix spans a rank-1 lattice of values on
    integer vectors; its positive generator is q_j = gcd(L*row entries)/L
    over a common denominator L.  The cone is Gorenstein iff the solution
    of A*c = (q_1, ..., q_n) is an integer vector, and then c is the
    Gorenstein point.  Row j scaled by its L is an integer row with the
    same solution for right-hand side gcd(L*row entries): each integer row,
    its nonzero entries only, carries that gcd in column n, and those rows
    are what elimination runs on.
    """
    A = []
    for row in rows:
        row = list(row)
        # entries are read as Fraction(x) reads them and zeros dropped;
        # parse_matrix's shared zero is dropped by identity, because testing
        # a Fraction for zero is a call into Python code
        entries = [
            (j, x if isinstance(x, (int, Fraction)) else Fraction(x))
            for j, x in enumerate(row)
            if x is not _ZERO
        ]
        A.append((len(row), [(j, x) for j, x in entries if x]))
    n = len(A)
    if n == 0 or any(width != n for width, _ in A):
        raise ValueError("need a nonempty square matrix")
    M = []
    for i, (_, entries) in enumerate(A):
        L = lcm(*(x.denominator for _, x in entries))
        row = {j: x.numerator * (L // x.denominator) for j, x in entries}
        row[n] = g = gcd(*row.values())  # the right-hand side rides in column n
        if g == 0:
            raise SingularMatrixError(f"row {i + 1} is zero")
        M.append(row)
    c = _solve_exact(M)
    for i, x in enumerate(c):
        if x.denominator != 1:
            return GorensteinResult(None, i + 1, x)
    return GorensteinResult(tuple(int(x) for x in c), None, None)


def _solve_exact(M):
    """Solve A*x = b over the rationals from the n augmented rows of (A | b),
    each given by its nonzero entries, a dict column -> int or Fraction,
    with b_i in column n (left out when 0).  Returns x as Fractions; the
    rows are eliminated in place.

    Gaussian elimination with first-nonzero pivoting, then back-substitution,
    each touching nonzero entries only; on a lower-triangular matrix this is
    forward substitution.
    """
    n = len(M)
    for col in range(n):
        pivot = next((r for r in range(col, n) if col in M[r]), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        M[col], M[pivot] = M[pivot], M[col]
        prow = M[col]
        p = prow[col]
        for r in range(col + 1, n):
            row = M[r]
            if col in row:
                factor = Fraction(row.pop(col), p)
                for j, v in prow.items():
                    if j != col:
                        v = row.get(j, 0) - factor * v
                        if v:
                            row[j] = v
                        else:
                            row.pop(j, None)
    x = [None] * n
    for i in range(n - 1, -1, -1):
        row = M[i]
        acc = row.get(n, 0) - sum(v * x[j] for j, v in row.items() if i < j < n)
        x[i] = Fraction(acc, row[i])
    return x


def _entry(token, lineno):
    """[sign]digits or [sign]digits/digits, in ASCII; Fraction(token) alone
    would also read 1e2000000, too large a number to build."""
    num, slash, den = token.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    try:
        if digits.isascii() and digits.isdigit() and (not slash or den.isascii() and den.isdigit()):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"line {lineno}: bad entry '{token}'")


def parse_matrix(text):
    """Parse a matrix from text: one row per line, entries 'p/q' or integers,
    whitespace-separated.  Blank lines are skipped."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        rows.append(tuple([_ZERO if token == "0" else _entry(token, lineno) for token in line.split()]))
    if not rows:
        raise ValueError("matrix text holds no rows")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise ValueError(f"row {lineno} has {len(row)} entries, expected {width}")
    return tuple(rows)
