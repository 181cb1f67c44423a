"""Exact arithmetic kernel: dense integer polynomials and truncated power series.

A polynomial is a tuple of int coefficients indexed by degree with trailing
zeros stripped; the zero polynomial stores nothing and reports degree -inf.
A truncated series stores exactly M+1 coefficients for truncation degree M;
two series compare equal when they agree through the smaller M.  Both types
are immutable and the public functions pure, so values are safe to share
across threads.
"""

from __future__ import annotations

from itertools import compress, count, islice
from operator import eq, ge, gt

__all__ = [
    "DensePoly",
    "TruncatedSeries",
    "is_palindromic",
    "is_unimodal",
    "product_form_series",
]

NEG_INF = float("-inf")


class DensePoly:
    """Dense polynomial with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = tuple(coeffs)
        k = len(cs)
        while k and cs[k - 1] == 0:
            k -= 1
        object.__setattr__(self, "coeffs", cs[:k])

    def __setattr__(self, name, value):
        raise AttributeError("DensePoly is immutable")

    @property
    def degree(self):
        # -inf sentinel for the zero polynomial avoids special-casing callers
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, m):
        if 0 <= m < len(self.coeffs):
            return self.coeffs[m]
        return 0

    def __iter__(self):
        # without it iteration would fall back to __getitem__, which never
        # raises IndexError, and so would never end
        return iter(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, DensePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"DensePoly({list(self.coeffs)!r})"


def is_palindromic(p):
    """True iff coeffs[i] == coeffs[deg - i] for all i (zero polynomial: True)."""
    cs = p.coeffs
    # the first half against the reversed end, in C and with no copy
    return all(map(eq, islice(cs, len(cs) // 2), reversed(cs)))


def is_unimodal(p):
    """True iff the coefficients weakly rise and then weakly fall."""
    cs = p.coeffs
    # the first descent, then no rise after it; both scans run in C
    i = next(compress(count(), map(gt, cs, islice(cs, 1, None))), None)
    return i is None or all(map(ge, islice(cs, i, None), islice(cs, i + 1, None)))


class TruncatedSeries:
    """Power series known exactly through degree M (inclusive).

    Stores exactly M+1 integer coefficients.  Equality between two series
    only sees degrees up to the smaller truncation degree: the truncation is
    the contract, nothing beyond it is claimed.
    """

    __slots__ = ("coeffs", "truncation_degree")

    def __init__(self, coeffs, truncation_degree=None):
        cs = list(coeffs)
        if truncation_degree is None:
            if not cs:
                raise ValueError("a series needs at least the degree-0 coefficient")
            truncation_degree = len(cs) - 1
        if truncation_degree < 0:
            raise ValueError(f"truncation degree must be >= 0, got {truncation_degree}")
        if len(cs) > truncation_degree + 1:
            raise ValueError("more coefficients than the truncation degree admits")
        cs.extend([0] * (truncation_degree + 1 - len(cs)))
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "truncation_degree", truncation_degree)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __getitem__(self, m):
        if not 0 <= m <= self.truncation_degree:
            raise IndexError(f"degree {m} beyond truncation {self.truncation_degree}")
        return self.coeffs[m]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        m = min(self.truncation_degree, other.truncation_degree)
        return self.coeffs[: m + 1] == other.coeffs[: m + 1]

    __hash__ = None  # equality ignores coefficients beyond the smaller M

    def __repr__(self):
        return f"TruncatedSeries({list(self.coeffs)!r}, M={self.truncation_degree})"


def _divide_by_factors(coeffs, exponents):
    """Divide the series coeffs by each 1 - q^e in place, through its length.

    Each factor is one prefix-sum pass with stride e, so the whole division
    costs O(len(exponents) * len(coeffs)).
    """
    for e in exponents:
        if e < 1:
            raise ValueError(f"exponent must be >= 1, got {e}")
        for m in range(e, len(coeffs)):
            coeffs[m] += coeffs[m - e]
    return coeffs


def product_form_series(exponents, M):
    """Coefficients of prod_i 1/(1 - q^{e_i}) through degree M."""
    if M < 0:
        raise ValueError(f"truncation degree must be >= 0, got {M}")
    return TruncatedSeries(_divide_by_factors([1] + [0] * M, exponents), M)
