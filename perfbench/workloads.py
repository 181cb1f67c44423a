"""The benchmark's operations and the seeded op list of each workload.

An operation is described by a JSON-able tuple (see `Op`).  Each
workload is a set of cost tiers from `pools.json`: a tier holds a pool of
operations whose time lay within a narrow band on the reference machine,
and a count.  A seed draws `count` operations from every pool (with
replacement) and shuffles the round; the fixed operations of a workload
are added unchanged.  So every seed gives other inputs with the same mix
of costs, and the median and 90th percentile fall inside a tier, never on
the edge between two.

Operations call lhcone through module attributes looked up at call time,
so the traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from pathlib import Path

import checks

POOLS = Path(__file__).with_name("pools.json")
WORKLOADS = ("gf_exact", "series_shallow", "recurrence_cli")


def terms(spec, n):
    """The terms of a spec string, built by the benchmark's own recurrences."""
    kind, _, args = spec.partition(":")
    vals = [int(x) for x in args.split(",")]
    if kind == "list":
        return vals
    if kind == "kl":
        return checks.kl_terms(vals[0], vals[1], n)
    if kind == "ell":
        return checks.kl_terms(vals[0], vals[0], n)
    if kind == "rec":
        return checks.rec_terms(vals[0], vals[1], n)
    if kind == "onemodk":
        return checks.onemodk_terms(vals[0], n)
    raise ValueError(f"unknown spec {spec}")


def kl_exponents_of(spec, n):
    kind, _, args = spec.partition(":")
    vals = [int(x) for x in args.split(",")]
    if kind == "kl":
        return checks.kl_exponents(vals[0], vals[1], n)
    if kind == "ell":
        return checks.kl_exponents(vals[0], vals[0], n)
    return None


def matrix_rows(kind, n, variant):
    """A lower-triangular inequality matrix: the lecture hall cone of an
    ell-sequence (kind 'ell:L'), or random rational rows (kind 'rand')."""
    if kind == "rand":
        rng = random.Random(f"matrix-{n}-{variant}")
        rows = []
        for i in range(n):
            row = [Fraction(0)] * n
            row[i] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            for j in range(i):
                if rng.random() < 0.5:
                    row[j] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            rows.append(row)
        return rows
    s = terms(kind, n)
    rows = []
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] = Fraction(1, s[j])
        if j:
            row[j - 1] = Fraction(-1, s[j - 1])
        rows.append(row)
    return rows


def run_cli(lhcone, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = lhcone.cli.main(argv)
    return rc, out.getvalue()


class Op:
    """One operation: `run` calls the program, `check` judges its answer
    independently and returns 'ok' or 'failed' (a known defect), or raises
    checks.Mismatch."""

    cli = False

    def __init__(self, desc, lhcone, workdir):
        self.desc = desc
        self.lhcone = lhcone
        kind = desc[0]
        if kind in ("numerator", "hstar"):
            _, spec, n = desc
            self.s = terms(spec, n)
            self.exps = kl_exponents_of(spec, n)
        elif kind == "series":
            _, spec, n, self.M = desc
            self.s = terms(spec, n)
            self.exps = kl_exponents_of(spec, n)
        elif kind == "product":
            _, k, l, n, self.M = desc
            self.s = checks.kl_terms(k, l, n)
            self.exps = checks.kl_exponents(k, l, n)
        else:
            self.cli = True
            self.argv = self._argv(desc, workdir)

    def _argv(self, desc, workdir):
        kind = desc[0]
        if kind == "gor":
            _, spec, n = desc
            self.s = terms(spec, n)
            return ["gor", "--seq", spec, "--n", str(n)]
        if kind == "classify":
            _, l, b, n, horizon = desc
            extra = [] if horizon is None else ["--horizon", str(horizon)]
            return ["classify", "--seq", f"rec:{l},{b}", "--n", str(n)] + extra
        if kind in ("gcd-table", "profile"):
            _, l, b, n = desc
            return [kind, "--l", str(l), "--b", str(b), "--n", str(n)]
        if kind == "n0":
            _, l, b, horizon = desc
            extra = [] if horizon is None else ["--horizon", str(horizon)]
            return ["n0", "--l", str(l), "--b", str(b)] + extra
        if kind == "matrix":
            _, mkind, n, variant = desc
            self.rows = matrix_rows(mkind, n, variant)
            path = os.path.join(workdir, f"m-{mkind.replace(':', '')}-{n}-{variant}.txt")
            if not os.path.exists(path):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(" ".join(str(x) for x in row) for row in self.rows) + "\n")
            return ["gor", "--matrix", path]
        raise ValueError(f"unknown operation {desc}")

    def run(self):
        lh = self.lhcone
        kind = self.desc[0]
        if kind == "numerator":
            return lh.numerator_H(self.s).coeffs
        if kind == "hstar":
            return lh.h_star(self.s).coeffs.coeffs
        if kind == "series":
            return lh.weight_series(self.s, self.M).coeffs
        if kind == "product":
            f = lh.weight_series(self.s, self.M)
            found = lh.detect_product_form(f, len(self.s))
            return None if found is None else tuple(found)
        return run_cli(lh, self.argv)

    def check(self, result):
        kind = self.desc[0]
        if kind == "numerator":
            checks.check_numerator(self.s, list(result), self.exps)
        elif kind == "hstar":
            checks.check_hstar(self.s, list(result))
        elif kind == "series":
            checks.check_series(self.s, self.M, list(result), self.exps)
        elif kind == "product":
            return checks.product_verdict_status(self.exps, self.M, result)
        else:
            self._check_cli(*result)
        return "ok"

    def _check_cli(self, rc, out):
        d = self.desc
        kind = d[0]
        if kind == "gor":
            checks.check_gor_cli(self.s, out, rc, closed_form=d[1].startswith("ell:"))
        elif kind == "classify":
            _, l, b, n, horizon = d
            checks.check_classify_cli(l, b, n, 64 if horizon is None else horizon, out, rc)
        elif kind == "gcd-table":
            checks.require(rc == 0, f"exit code {rc}")
            checks.check_gcd_table_cli(d[1], d[2], d[3], out)
        elif kind == "profile":
            checks.require(rc == 0, f"exit code {rc}")
            checks.check_profile_cli(d[1], d[2], d[3], out)
        elif kind == "n0":
            checks.require(rc == 0, f"exit code {rc}")
            checks.check_n0_cli(d[1], d[2], d[3], out)
        else:
            checks.check_matrix_cli(self.rows, out, rc)


def op_list(workload, seed):
    """The descriptors of one round, drawn from the pools by `seed`."""
    spec = json.loads(POOLS.read_text(encoding="utf-8"))[workload]
    rng = random.Random(f"{workload}-{seed}")
    descs = [tuple(d) for d in spec.get("fixed", [])]
    for tier in spec["tiers"]:
        pool = tier["ops"]
        descs += [tuple(rng.choice(pool)) for _ in range(tier["count"])]
    rng.shuffle(descs)
    return descs


def build(workload, seed, lhcone, workdir):
    return [Op(d, lhcone, workdir) for d in op_list(workload, seed)]
