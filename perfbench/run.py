"""The benchmark's command: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload gf_exact --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; lhcone is imported from its src/.
With --trace 0 it first starts fresh interpreters that only import lhcone
and build the workload's inputs (one to warm the bytecode cache, then
SETUP_RUNS timed) and reports their median as setup_s; then it runs the
workload in a fresh worker process.  With --trace 1 it runs the traced
worker only.  The result is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_NOMINAL_S, reference_work

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7
# every run must end within 180 s
DEADLINE_S = 170


def run_worker(args, *extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    return proc.stdout


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (HERE.parent / "src" / "lhcone" / "__init__.py").is_file():
        sys.exit(f"error: run from a source checkout; {HERE.parent / 'src' / 'lhcone'} is missing")
    start = time.monotonic()

    setup = []
    if not args.trace:
        ref = reference_work()
        for i in range(SETUP_RUNS + 1):
            t0 = time.perf_counter()
            run_worker(args, "--setup-only", timeout=60)
            elapsed = time.perf_counter() - t0
            prev, ref = ref, reference_work()
            if i:
                # scaled like the operation latencies, see worker.py
                setup.append(elapsed * REFERENCE_NOMINAL_S * 2 / (prev + ref))
    remaining = DEADLINE_S - (time.monotonic() - start)
    out = run_worker(args, "--seconds", str(args.seconds), "--trace", str(args.trace), timeout=remaining)
    result = json.loads(out.strip().splitlines()[-1])
    if setup:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    line = json.dumps(result)
    (HERE / "out").mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (HERE / "out" / name).write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
