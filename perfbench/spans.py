"""Span tracing for the benchmark's traced run, from the benchmark's side.

`Tracer(lhcone)` wraps every public function and public method defined in
the layer modules of lhcone, and rebinds each wrapper wherever a module of
the package binds the original (so `lhcone.numerator_H`,
`lhcone.enumeration.series_mul_poly` and `lhcone.exact_arith.series_mul_poly`
all record).  A span is [layer, name, start, end, parent index]; spans stay
in memory until the caller takes them.  Work counts are computed from the
arguments and results at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("enumeration", "exact_arith", "gorenstein", "sequences", "gcd_structure", "cli")
# public dunders that do real work
METHODS = ("__mul__",)


def _nonzero_upto(coeffs, M):
    return sum(1 for j, c in enumerate(coeffs) if c and j <= M)


def _terms_checked(result, n):
    return n if result.point is not None else result.fails_at


# (layer, function name) -> (counter name, count from args and result)
COUNTS = {
    ("enumeration", "weight_series"): ("series_terms", lambda a, r: a[1] + 1),
    ("enumeration", "ehrhart_counts"): ("series_terms", lambda a, r: a[1] + 1),
    ("exact_arith", "series_mul_poly"): (
        "coeff_ops",
        lambda a, r: _nonzero_upto(a[1].coeffs, a[0].truncation_degree) * (a[0].truncation_degree + 1),
    ),
    ("exact_arith", "DensePoly.__mul__"): ("coeff_ops", lambda a, r: len(a[0].coeffs) * len(a[1].coeffs)),
    ("gorenstein", "lecture_hall_gorenstein"): ("terms_checked", lambda a, r: _terms_checked(r, len(a[0]))),
    ("gorenstein", "simple_cone_gorenstein"): ("terms_checked", lambda a, r: len(a[0])),
    ("gorenstein", "gorenstein_fail_index"): ("terms_checked", lambda a, r: a[2] if r is None else r),
    ("gorenstein", "ell_sequence_point"): ("terms_checked", lambda a, r: len(r)),
    ("gorenstein", "u_generated_point"): ("terms_checked", lambda a, r: len(r)),
    ("gorenstein", "greedy_interior_point"): ("terms_checked", lambda a, r: len(r)),
    ("sequences", "generate_recurrence"): ("terms_generated", lambda a, r: len(r)),
    ("sequences", "generate_kl"): ("terms_generated", lambda a, r: len(r)),
    ("sequences", "generate_from_u"): ("terms_generated", lambda a, r: len(r)),
    ("sequences", "one_mod_k"): ("terms_generated", lambda a, r: len(r)),
}


class Tracer:
    def __init__(self, package):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._bindings = []
        modules = [m for name, m in sys.modules.items() if name == package.__name__ or name.startswith(package.__name__ + ".")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[id(obj)] = (obj, self._wrap(obj, layer, name))
                elif isinstance(obj, type):
                    for attr, fn in vars(obj).items():
                        if isinstance(fn, types.FunctionType) and (not attr.startswith("_") or attr in METHODS):
                            self._bindings.append((obj, attr, fn, self._wrap(fn, layer, f"{name}.{attr}")))
        for mod in modules:
            for name, obj in vars(mod).items():
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._bindings.append((mod, name, obj, wrapped[id(obj)][1]))

    def _wrap(self, fn, layer, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTS.get((layer, name))
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [layer, name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                counts[f"{layer}.{count[0]}"] += count[1](args, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def take(self):
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), Counter(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def self_times(spans):
    """Per layer and per layer.function: number of calls and self seconds,
    a span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for layer, name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s = Counter(), defaultdict(float)
    for (layer, name, start, end, _), c in zip(spans, child):
        calls[layer] += 1
        self_s[layer] += end - start - c
        self_s[f"{layer}.{name}"] += end - start - c
    return calls, self_s
