"""Run the benchmark on many seeds and print median, quartiles and spread.

    python3 perfbench/spread.py --runs 10                # seeds 1..10, every workload
    python3 perfbench/spread.py --runs 10 --first-seed 11 --workloads gf_exact
    python3 perfbench/spread.py --trace 1 --runs 1       # per-layer figures

Run from the root of a source checkout.  The spread of a metric is
(q3 - q1) / median over the runs, quartiles as statistics.quantiles(n=4)
gives them; it is printed beside the metric's bound from BENCHMARK.json.
The raw results go to perfbench/out/spread-*.json; the tables in the
README are this script's output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    raw = {}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"][1:] + ["--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run([sys.executable, *cmd], cwd=ROOT, capture_output=True, text=True, check=True)
            results.append(json.loads(out.stdout.strip().splitlines()[-1]))
        raw[workload] = results
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {len(results)} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"correct {all(r['correct'] for r in results)}, failed/attempted {shares}")
        print("| metric | unit | median | q1 | q3 | spread | bound |")
        print("| --- | --- | --- | --- | --- | --- | --- |")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {m.get('bound', '-')} |")
    (HERE / "out").mkdir(exist_ok=True)
    path = HERE / "out" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
