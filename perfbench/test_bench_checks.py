"""The benchmark's answer checks accept the program's answers and reject
each of them with one value changed.

    python3 -m pytest perfbench/test_bench_checks.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import lhcone  # noqa: E402
import lhcone.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def bump(values, i):
    values = list(values)
    values[i] += 1
    return values


def edit_json(out, change):
    payload = json.loads(out)
    change(payload)
    return json.dumps(payload)


def bump_str(p, key, i=None):
    if i is None:
        p[key] = str(int(p[key]) + 1)
    else:
        p[key][i] = str(int(p[key][i]) + 1)


# (operation, ways to break its answer); each break turns a right answer
# into one with a single value changed
CASES = [
    (("numerator", "kl:3,4", 4), [lambda r: bump(r, 1), lambda r: bump(r, len(r) - 1)]),
    (("numerator", "list:1,3,5,7", None), [lambda r: bump(r, 3)]),
    (("hstar", "rec:1,1", 6), [lambda r: bump(r, 2)]),
    (("series", "onemodk:3", 20, 30), [lambda r: bump(r, 17)]),
    (("series", "kl:2,3", 14, 30), [lambda r: bump(r, 29)]),
    (("product", 2, 3, 4, 64), [lambda r: tuple(bump(r, 3))]),
    (("gor", "ell:3", 40), [
        lambda r: (r[0], edit_json(r[1], lambda p: bump_str(p, "point", 20))),
        lambda r: (1, r[1]),
    ]),
    (("gor", "rec:3,9", 10), [
        lambda r: (r[0], edit_json(r[1], lambda p: p.update(fails_at=p["fails_at"] - 1))),
        lambda r: (r[0], edit_json(r[1], lambda p: p.update(witness="26493/2"))),
    ]),
    (("classify", 6, 36, 12, None), [
        lambda r: (r[0], edit_json(r[1], lambda p: bump_str(p, "terms", 5))),
        lambda r: (r[0], edit_json(r[1], lambda p: bump_str(p["profile"], "sigma"))),
        lambda r: (r[0], edit_json(r[1], lambda p: p.update(fail_index=p["fail_index"] + 1))),
    ]),
    (("classify", 2, -1, 12, None), [
        lambda r: (r[0], edit_json(r[1], lambda p: bump_str(p["u_generation"], "u", 3))),
    ]),
    (("gcd-table", 6, 36, 12), [
        lambda r: (r[0], edit_json(r[1], lambda p: bump_str(p["rows"][4], "gcd"))),
        lambda r: (r[0], edit_json(r[1], lambda p: bump_str(p["rows"][4], "u"))),
    ]),
    (("profile", 90, -756, 10), [
        lambda r: (r[0], edit_json(r[1], lambda p: bump_str(p, "f_sequence", 6))),
        lambda r: (r[0], edit_json(r[1], lambda p: bump_str(p, "gamma"))),
    ]),
    (("n0", 3, 9, 40), [
        lambda r: (r[0], edit_json(r[1], lambda p: p.update(n0=p["n0"] + 1))),
        lambda r: (r[0], edit_json(r[1], lambda p: p.update(n0=p["n0"] - 1))),
    ]),
    (("matrix", "ell:3", 8, 0), [lambda r: (r[0], edit_json(r[1], lambda p: bump_str(p, "point", 4)))]),
    (("matrix", "rand", 6, 1), [lambda r: (r[0], edit_json(r[1], lambda p: p.update(witness="1/7")))]),
]


@pytest.mark.parametrize("desc,breaks", CASES, ids=[str(c[0]) for c in CASES])
def test_check_accepts_the_answer_and_rejects_one_changed_value(desc, breaks, tmp_path):
    op = workloads.Op(desc, lhcone, str(tmp_path))
    result = op.run()
    assert op.check(result) == "ok"
    for broken in breaks:
        with pytest.raises(checks.Mismatch):
            op.check(broken(result))


def test_truncated_product_verdict_counts_as_failed_not_wrong():
    op = workloads.Op(("product", 4, 4, 4, 64), lhcone, ".")
    assert op.exps == [1, 5, 19, 71]
    assert op.check(op.run()) == "failed"
    with pytest.raises(checks.Mismatch):
        checks.product_verdict_status([1, 4, 7, 17], 64, None)


def test_weight_counter_matches_the_product_formula():
    for k, l, n in [(2, 2, 6), (3, 4, 5), (5, 2, 4)]:
        s = checks.kl_terms(k, l, n)
        assert checks.weight_counts(s, 40) == checks.product_series(checks.kl_exponents(k, l, n), 40)
