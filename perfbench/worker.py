"""Run one workload in this (fresh, single-threaded) process.

    python3 perfbench/worker.py --workload gf_exact --seed 1 --seconds 15 --trace 0
    python3 perfbench/worker.py --workload gf_exact --seed 1 --setup-only

Round 0 runs every operation of the seeded round once and checks each
answer independently; it is not timed.  Then whole rounds repeat until
--seconds have passed, each answer compared with the checked one of round 0,
each latency scaled by a reference computation (see REFERENCE_NOMINAL_S).
With --trace 0 the timed rounds give the end-to-end figures; with --trace 1
traced and untraced rounds alternate and give the per-layer figures, per
round.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def import_lhcone():
    if not (SRC / "lhcone" / "__init__.py").is_file():
        sys.exit(f"error: no lhcone sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import lhcone
    import lhcone.cli  # noqa: F401

    if Path(lhcone.__file__).resolve().parent != SRC / "lhcone":
        sys.exit(f"error: imported lhcone from {lhcone.__file__}, not from {SRC}")
    return lhcone


# Operations are timed in batches, each between two runs of a fixed
# reference computation, and every latency is scaled by
# REFERENCE_NOMINAL_S / (mean of the two reference times).  The effective
# CPU speed of a shared machine drifts by tens of percent within seconds;
# the scaled latencies are those of a machine that runs the reference in
# REFERENCE_NOMINAL_S, and repeat far better than raw ones.  The reference
# is the kind of work the workload does: a lattice walk for the
# enumeration workloads, a mix of walk, bigint recursion and JSON for the
# CLI workload and for set-up.
BATCH = 6
REFERENCE_NOMINAL_S = 0.005
REFERENCE_KIND = {"gf_exact": "lattice", "series_shallow": "lattice", "recurrence_cli": "mixed"}


def _walk_counts(s, M):
    # lattice points of the cone of s by weight through M, walked coordinate
    # by coordinate as a brute-force enumeration does
    delta = [0] * (M + 1)
    n = len(s)

    def walk(i, lo, w):
        v = lo
        while True:
            w2 = w + v
            lo_next = (v * s[i] + s[i - 1] - 1) // s[i - 1]
            if w2 + lo_next > M:
                break
            if i == n - 1:
                delta[w2 + lo_next] += 1
            else:
                walk(i + 1, lo_next, w2)
            v += 1

    walk(1, 0, 0)
    return delta


def _ell_point(l, n):
    # the Gorenstein recursion on an ell-sequence: bigint products and gcds
    s = [0, 1]
    for _ in range(n - 1):
        s.append(l * s[-1] - s[-2])
    c = [1]
    for j in range(2, n + 1):
        c.append((c[-1] * s[j] + gcd(s[j], s[j - 1])) // s[j - 1])
    return c


def reference_work(kind="mixed"):
    """Time a fixed computation of the kinds lhcone does, in code of its
    own (no lhcone): about REFERENCE_NOMINAL_S on the reference machine."""
    t0 = time.perf_counter()
    if kind == "lattice":
        _walk_counts((1, 2, 3, 4, 5, 6), 87)
    else:
        _walk_counts((1, 2, 3, 4, 5, 6), 75)
        point = _ell_point(3, 400)
        json.loads(json.dumps({"point": [str(x) for x in point]}, indent=2))
    return time.perf_counter() - t0


class Run:
    def __init__(self, ops, reference):
        self.ops = ops
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.status = []
        self.digests = []

    def note_error(self, op, message):
        if len(self.errors) < 5:
            print(f"error: {op.desc}: {message}", file=sys.stderr)
        self.errors.append(message)

    def checked_round(self):
        import checks

        for op in self.ops:
            self.attempted += 1
            try:
                result = op.run()
                status = op.check(result)
            except checks.Mismatch as exc:
                self.note_error(op, f"wrong answer: {exc}")
                result, status = None, "failed"
            except Exception as exc:  # an operation that raises is a failed one
                self.note_error(op, f"{type(exc).__name__}: {exc}")
                result, status = None, "failed"
            self.failed += status == "failed"
            self.status.append(status)
            self.digests.append(hash(result))

    def timed_round(self, latencies):
        """One round; appends the scaled latencies and returns the stdout
        bytes of the CLI calls."""
        stdout_bytes = 0
        ref = reference_work(self.reference)
        batch = []
        for i, op in enumerate(self.ops):
            self.attempted += 1
            failed = self.status[i] == "failed"
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:
                result = None
                if not failed:
                    self.note_error(op, f"{type(exc).__name__}: {exc}")
                    failed = True
            batch.append(time.perf_counter() - t0)
            if len(batch) == BATCH or i == len(self.ops) - 1:
                prev, ref = ref, reference_work(self.reference)
                scale = REFERENCE_NOMINAL_S * 2 / (prev + ref)
                latencies.extend(x * scale for x in batch)
                batch.clear()
            if op.cli and result is not None:
                stdout_bytes += len(result[1])
            self.failed += failed
            if result is not None and hash(result) != self.digests[i]:
                self.note_error(op, "answer differs from the checked answer of round 0")
        return stdout_bytes


def end_to_end(run, seconds):
    """Each figure is the median over the timed rounds of that round's
    figure, so one round caught in a slow spell of the machine does not
    move it.  A round has at least 100 operations, so its 90th percentile
    has at least ten samples beyond it."""
    rounds = []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        latencies = []
        run.timed_round(latencies)
        rounds.append(latencies)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (statistics.median(len(r) / sum(r) for r in rounds), "1/s"),
        "op_p50_ms": (statistics.median(statistics.median(r) for r in rounds) * 1e3, "ms"),
        "op_p90_ms": (statistics.median(statistics.quantiles(r, n=10)[8] for r in rounds) * 1e3, "ms"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }


PER_LAYER_COUNTS = {
    "enumeration": ("series_terms",),
    "exact_arith": ("coeff_ops",),
    "gorenstein": ("terms_checked",),
    "sequences": ("terms_generated",),
    "gcd_structure": (),
    "cli": (),
}
PER_FUNCTION_SELF = (
    "enumeration.weight_series",
    "enumeration.ehrhart_counts",
    "enumeration.detect_product_form",
    "gorenstein.simple_cone_gorenstein",
    "gcd_structure.find_n0",
)


def per_layer(run, lhcone, seconds, trace_file):
    import spans

    tracer = spans.Tracer(lhcone)
    plain, traced, layer_self = [], [], []
    first = None
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        latencies = []
        run.timed_round(latencies)
        plain.append(sum(latencies))
        latencies = []
        tracer.install()
        try:
            stdout_bytes = run.timed_round(latencies)
        finally:
            tracer.uninstall()
        traced.append(sum(latencies))
        recorded, counts = tracer.take()
        calls, self_s = spans.self_times(recorded)
        layer_self.append(self_s)
        if first is None:
            first = (recorded, calls, counts, stdout_bytes)
    recorded, calls, counts, stdout_bytes = first
    with open(trace_file, "w", encoding="utf-8") as fh:
        for layer, name, start, end, parent in recorded:
            fh.write(json.dumps({"name": f"{layer}.{name}", "start": start, "end": end, "parent": parent}) + "\n")
    metrics = {}
    for layer, extra in PER_LAYER_COUNTS.items():
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_s"] = (statistics.median(s[layer] for s in layer_self), "s")
        for name in extra:
            metrics[f"{layer}.{name}"] = (counts[f"{layer}.{name}"], "count")
    for name in PER_FUNCTION_SELF:
        metrics[f"{name}.self_s"] = (statistics.median(s[name] for s in layer_self), "s")
    metrics["cli.stdout_bytes"] = (stdout_bytes, "B")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="import and build the inputs, then exit")
    args = ap.parse_args(argv)

    lhcone = import_lhcone()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload}; one of {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        ops = workloads.build(args.workload, args.seed, lhcone, workdir)
        if args.setup_only:
            return 0
        run = Run(ops, REFERENCE_KIND[args.workload])
        run.checked_round()
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics = per_layer(run, lhcone, args.seconds, trace_file)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
