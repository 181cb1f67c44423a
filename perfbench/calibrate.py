"""Build pools.json: time candidate operations and keep those in each tier's band.

    python3 perfbench/calibrate.py            # writes perfbench/pools.json
    python3 perfbench/calibrate.py --show     # re-times the committed pools

A candidate is timed once; when that lands near a band it is timed seven
more times and the median decides.  Times are scaled by a reference
computation, as in the benchmark (see worker.py).  Every kept candidate also passes its
answer check.  The bands are wall-clock times of one machine, so the pools
are that machine's; rerunning this elsewhere gives other pools and, with
them, another benchmark.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import shutil
import statistics
import sys
import tempfile
import time
from itertools import cycle
from math import prod
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import lhcone  # noqa: E402
import lhcone.cli  # noqa: E402

import workloads  # noqa: E402
from worker import REFERENCE_KIND, REFERENCE_NOMINAL_S, reference_work  # noqa: E402

# (low ms, high ms, operations per round).  The median and the 90th
# percentile of a 120-operation round fall mid-way into the second and the
# fourth tier, whose bands are the narrowest.
TIERS = {
    "gf_exact": [(0.8, 1.2, 45), (3.6, 4.4, 30), (12.0, 18.0, 21), (63.0, 77.0, 24)],
    "series_shallow": [(1.6, 2.4, 33), (7.2, 8.8, 30), (16.0, 24.0, 21), (45.0, 55.0, 24)],
    "recurrence_cli": [(1.2, 3.0, 45), (4.5, 5.5, 30), (16.0, 24.0, 21), (72.0, 88.0, 24)],
}
# product verdicts at the CLI default truncation 64, the same on every seed;
# the last four have an exponent above 64 and hit the truncated-verdict defect
FIXED = {
    "series_shallow": [
        ["product", k, l, n, 64]
        for (k, l, n) in [
            (2, 2, 4), (2, 3, 4), (3, 2, 4), (3, 3, 4), (2, 4, 4), (4, 2, 4), (4, 4, 3), (5, 5, 3),
            (4, 4, 4), (5, 5, 4), (3, 3, 5), (4, 4, 5),
        ]
    ]
}
POOL_MAX = 32
NODE_CAP = 400_000


def gf_candidates():
    seqs = {}
    for k in range(2, 8):
        for l in range(2, 8):
            for n in range(3, 8):
                seqs[("ell:%d" % k if k == l else "kl:%d,%d" % (k, l), n)] = None
    for l in range(1, 6):
        for b in range(-4, 6):
            if b and l * l + 4 * b >= 0:
                for n in range(3, 10):
                    seqs[("rec:%d,%d" % (l, b), n)] = None
    for k in range(1, 12):
        for n in range(3, 9):
            seqs[("onemodk:%d" % k, n)] = None
    rng = random.Random("gf-lists")
    for _ in range(600):
        n = rng.randint(3, 6)
        s = [rng.randint(1, 40) for _ in range(n)]
        if rng.random() < 0.7:
            s.sort()
        seqs[("list:" + ",".join(map(str, s)), None)] = None
    for spec, n in seqs:
        s = workloads.terms(spec, n)
        if 100 <= prod(s) <= 3e6 and all(x > 0 for x in s):
            for kind, fn in (("numerator", lhcone.numerator_H), ("hstar", lhcone.h_star)):
                try:
                    fn(s, NODE_CAP)
                except lhcone.BudgetExceeded:
                    continue
                yield [kind, spec, n]


def series_candidates():
    seqs = []
    for k in range(2, 7):
        for l in range(2, 7):
            seqs += [("ell:%d" % k if k == l else "kl:%d,%d" % (k, l), n) for n in range(6, 40)]
    for l in range(1, 7):
        for b in range(-4, 7):
            if b and l * l + 4 * b >= 0:
                seqs += [("rec:%d,%d" % (l, b), n) for n in range(6, 60)]
    for k in range(1, 12):
        seqs += [("onemodk:%d" % k, n) for n in range(6, 40)]
    rng = random.Random("series-lists")
    for _ in range(200):
        s = sorted(rng.randint(1, 30) for _ in range(rng.randint(8, 30)))
        seqs.append(("list:" + ",".join(map(str, s)), None))
    for spec, n in seqs:
        s = workloads.terms(spec, n)
        if not (1e10 <= prod(s) <= 1e30 and all(x > 0 for x in s)):
            continue
        for M in list(range(8, 40, 2)) + list(range(40, 65, 4)):
            try:
                lhcone.weight_series(s, M, NODE_CAP)
            except lhcone.BudgetExceeded:
                break
            yield ["series", spec, n, M]


def cli_candidates():
    for l in range(2, 11):
        for n in range(50, 2001, 50):
            yield ["gor", "ell:%d" % l, n]
    grid = [(l, b) for l in range(1, 10) for b in range(-9, 10) if b and l * l + 4 * b >= 0]
    for l, b in grid:
        for n in (8, 20, 40, 60):
            yield ["gor", "rec:%d,%d" % (l, b), n]
            yield ["classify", l, b, n, None]
            yield ["classify", l, b, n, 40]
        for n in range(20, 301, 20):
            yield ["gcd-table", l, b, n]
            yield ["profile", l, b, n]
        for horizon in (None, 20, 40, 80):
            yield ["n0", l, b, horizon]
    for n in range(5, 41, 5):
        for l in (2, 3, 4, 5):
            yield ["matrix", "ell:%d" % l, n, 0]
        for variant in range(4):
            yield ["matrix", "rand", n, variant]


CANDIDATES = {"gf_exact": gf_candidates, "series_shallow": series_candidates, "recurrence_cli": cli_candidates}


def time_op(op, repeats, kind):
    """Median of scaled times in ms, scaled as the benchmark scales them."""
    times = []
    ref = reference_work(kind)
    for _ in range(repeats):
        t0 = time.perf_counter()
        op.run()
        elapsed = time.perf_counter() - t0
        prev, ref = ref, reference_work(kind)
        times.append(elapsed * REFERENCE_NOMINAL_S * 2 / (prev + ref))
    return statistics.median(times) * 1e3


def family(desc):
    # the operation and the sequence family, for spreading a pool over kinds
    return (desc[0], desc[1].split(":")[0] if isinstance(desc[1], str) else "")


def select(workload, workdir):
    tiers = TIERS[workload]
    found = [[] for _ in tiers]
    for desc in CANDIDATES[workload]():
        op = workloads.Op(desc, lhcone, workdir)
        ms = time_op(op, 1, REFERENCE_KIND[workload])
        if not any(0.7 * lo <= ms <= 1.3 * hi for lo, hi, _ in tiers):
            continue
        ms = time_op(op, 7, REFERENCE_KIND[workload])
        for i, (lo, hi, _) in enumerate(tiers):
            if lo <= ms <= hi:
                op.check(op.run())
                found[i].append((desc, ms))
    out = {"tiers": []}
    if workload in FIXED:
        out["fixed"] = FIXED[workload]
    for (lo, hi, count), cands in zip(tiers, found):
        groups = {}
        for desc, _ in cands:
            groups.setdefault(family(desc), []).append(desc)
        pool = []
        for group in cycle(list(groups.values())):
            if len(pool) >= POOL_MAX or not any(groups.values()):
                break
            if group:
                pool.append(group.pop(0))
        out["tiers"].append({"low_ms": lo, "high_ms": hi, "count": count, "ops": pool})
        print(f"{workload} [{lo}, {hi}] ms: {len(cands)} candidates, kept {len(pool)}", file=sys.stderr)
    return out


def show(workdir):
    pools = json.loads(workloads.POOLS.read_text(encoding="utf-8"))
    for workload, spec in pools.items():
        for tier in spec["tiers"]:
            ms = [time_op(workloads.Op(d, lhcone, workdir), 5, REFERENCE_KIND[workload]) for d in tier["ops"]]
            inside = sum(tier["low_ms"] <= x <= tier["high_ms"] for x in ms)
            print(
                f"{workload} [{tier['low_ms']}, {tier['high_ms']}] ms: {len(ms)} ops, "
                f"median {statistics.median(ms):.2f} ms, range {min(ms):.2f}..{max(ms):.2f}, "
                f"{inside} inside the band"
            )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", help="rebuild only these pools (default: all)")
    ap.add_argument("--show", action="store_true", help="re-time the committed pools")
    args = ap.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=HERE / "out")
    try:
        if args.show:
            show(workdir)
            return
        pools = json.loads(workloads.POOLS.read_text(encoding="utf-8")) if workloads.POOLS.exists() else {}
        for w in args.workloads or workloads.WORKLOADS:
            pools[w] = select(w, workdir)
        # one operation per line: collapse every innermost list
        text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", json.dumps(pools, indent=1))
        workloads.POOLS.write_text(text + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
