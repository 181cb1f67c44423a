import argparse
import csv
import decimal
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, islice, repeat
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lhcone import cli
from lhcone.cli import _Decimals, _write_json, main
from lhcone.exact_arith import _divide_by_factors
from lhcone.gcd_structure import failure_threshold_check, find_n0, gcd_profile, ratio_table
from lhcone.gorenstein import gorenstein_fail_index, lecture_hall_gorenstein
from lhcone.sequences import (
    CoprimalityError,
    SequenceSpec,
    _two_term_walk,
    _u_steps,
    generate_from_u,
    generate_recurrence,
    parse_sequence_spec,
    recognize_u_generated,
    validate_positivity,
)
from test_gorenstein import ell_sequence_point
from test_sequences import family_oracle

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
LONG_ONES = "list:" + ",".join(["1"] * 1500)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    return code, json.loads(out), err


def test_gor_negative_verdict_and_keys():
    code, doc, _ = run_json(["gor", "--seq", "rec:3,9", "--n", "7"])
    assert code == 1
    assert doc["schema"] == 2
    assert doc["gorenstein"] is False
    assert doc["fails_at"] == 7
    assert doc["witness"] == "26491/2"


def test_gor_positive_verdict():
    code, doc, _ = run_json(["gor", "--seq", "rec:3,9", "--n", "6"])
    assert code == 0
    assert doc["gorenstein"] is True
    assert doc["point"] == ["1", "4", "25", "113", "566", "2717"]


def test_gor_matrix_mode(tmp_path):
    m = tmp_path / "cone.txt"
    m.write_text("1 0\n-1 1/2\n")
    code, doc, _ = run_json(["gor", "--matrix", str(m)])
    assert code == 0
    assert doc["point"] == ["1", "3"]


def test_gor_matrix_and_seq_conflict(tmp_path):
    m = tmp_path / "cone.txt"
    m.write_text("1\n")
    code, _, err = run(["gor", "--matrix", str(m), "--seq", "list:1"])
    assert code == 2 and "mutually exclusive" in err


def test_gor_missing_input():
    code, _, err = run(["gor"])
    assert code == 2 and "required" in err


def test_series_coefficients():
    code, doc, _ = run_json(["series", "--seq", "list:1,2", "--m", "6"])
    assert code == 0
    assert doc["coefficients"] == ["1", "1", "1", "2", "2", "2", "3"]


def test_numerator_output():
    code, doc, _ = run_json(["numerator", "--seq", "list:1,3,5,7"])
    assert code == 0
    assert doc["denominator_exponents"] == ["16", "15", "12", "7"]
    assert doc["palindromic"] is True
    assert len(doc["coefficients"]) == 29


def test_hstar_output():
    code, doc, _ = run_json(["hstar", "--seq", "list:1,3,5"])
    assert code == 0
    assert doc["coefficients"][0] == "1" and doc["coefficients"][6] == "11"
    assert doc["symmetric"] is True
    assert doc["q1"] == "75"


def test_hstar_with_dilate_counts():
    code, doc, _ = run_json(["hstar", "--seq", "list:1,3,5", "--t", "4"])
    assert doc["ehrhart_counts"] == ["1", "2", "4", "6", "9"]


@pytest.mark.parametrize("spec, t", [("list:1,3,5", 40), ("ell:3 --n 4", 90), ("kl:2,3 --n 4", 60)])
def test_hstar_dilate_counts_are_its_coefficients_divided_out(spec, t):
    # i(t) = [x^t] Q(x)/(1 - x^{s_n})^{n+1}: the counts one hstar call prints
    # against the coefficients it prints, from two loops of the engine
    code, doc, _ = run_json(["hstar", "--seq", *spec.split(), "--t", str(t)])
    assert code == 0
    Q = [int(c) for c in doc["coefficients"]]
    sn = int(doc["denominator_exponent"])
    want = _divide_by_factors(list(islice(chain(Q, repeat(0)), t + 1)), [sn] * (doc["n"] + 1))
    assert [int(c) for c in doc["ehrhart_counts"]] == want


def test_product_found():
    code, doc, _ = run_json(["product", "--seq", "kl:2,3", "--n", "4"])
    assert code == 0
    assert doc["product_form"] is True
    assert doc["exponents"] == ["1", "4", "7", "17"]


def test_product_not_found_exits_one():
    code, doc, _ = run_json(["product", "--seq", "list:1,3,5,7"])
    assert code == 1
    assert doc["product_form"] is False and doc["exponents"] is None
    assert "m" not in doc


@pytest.mark.parametrize("m", [None, "0", "16", "20", "64", "-5"])
@pytest.mark.parametrize(
    "argv, code, exponents, degree",
    [
        # a series cut at 20 looks like 1/((1-q)(1-q^2))
        (["--seq", "list:11,10"], 1, None, 31),
        # a series cut at 16 misses the exponent 17
        (["--seq", "kl:2,3", "--n", "4"], 0, ["1", "4", "7", "17"], 70),
        # a series cut at 0 shows no exponent at all
        (["--seq", "list:1"], 0, ["1"], 1),
        # exponent 265, far above the old default cut of 64
        (["--seq", "kl:4,4", "--n", "5"], 0, ["1", "5", "19", "71", "265"], 1323),
    ],
)
def test_product_verdict_ignores_m(m, argv, code, exponents, degree, monkeypatch):
    # the verdict is exact, decided through degree = sum(d_i), so product
    # takes no truncation degree: the retired --m is refused by the parser
    if m is not None:
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as ei:
            main(["product", *argv, "--m", m])
        assert ei.value.code == 2 and "unrecognized arguments: --m" in err.getvalue()
        return
    got, doc, err = run_json(["product", *argv])
    assert got == code, err
    assert doc["product_form"] is (exponents is not None)
    assert doc["exponents"] == exponents
    assert "m" not in doc
    # every cone here is Gorenstein, so the division through degree is
    # charged, n*(degree + 1) nodes, before any work
    monkeypatch.setenv("LHCONE_BUDGET", str(doc["n"] * (degree + 1) - 1))
    assert run(["product", *argv]) == (2, "", f"error: enumeration passed {doc['n'] * (degree + 1) - 1} nodes\n")


@pytest.mark.parametrize("spec, n", [("rec:3,9", 8), ("rec:2,1", 12)])
def test_product_of_non_gorenstein_cone_needs_no_enumeration(monkeypatch, spec, n):
    # a product form makes the cone Gorenstein, so the index recursion
    # answers before any enumeration
    argv = ["product", "--seq", spec, "--n", str(n)]
    want = code, out, err = run(argv)
    doc = json.loads(out)
    assert (code, doc["product_form"], doc["exponents"]) == (1, False, None), err
    # n nodes admit the terms and no enumeration at all
    monkeypatch.setenv("LHCONE_BUDGET", str(n))
    assert run(argv) == want
    # a list: spec charges no terms, so one node is enough
    l, b = map(int, spec[4:].split(","))
    terms = ",".join(map(str, generate_recurrence(l, b, n)))
    monkeypatch.setenv("LHCONE_BUDGET", "1")
    code, doc, err = run_json(["product", "--seq", "list:" + terms])
    assert (code, doc["product_form"], doc["exponents"]) == (1, False, None), err


def test_gcd_table_csv():
    code, out, _ = run(["gcd-table", "--l", "6", "--b", "36", "--n", "24", "--format", "csv"])
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n,gcd,normalizer,u_n"
    assert len(lines) == 25
    u = [line.split(",")[3] for line in lines[1:]]
    assert u == [str(x) for x in [1, 1, 2, 3, 1, 2, 1, 3, 2, 1, 1, 6] * 2]
    assert lines[1:] == [",".join(map(str, row)) for row in ratio_table(6, 36, 24).rows]


@pytest.mark.parametrize("l, b, n", [(6, 36, 24), (9, 6, 300), (1, 3, 1), (2, -1, 70)])
def test_gcd_table_writes_the_rows_of_ratio_table(l, b, n):
    # one format string per row gives json.dumps's bytes, the text value of
    # the rows as dicts and the csv table, over several pieces at n = 300
    rows = ratio_table(l, b, n).rows
    dicts = [{"n": k, "gcd": str(g), "normalizer": str(norm), "u": str(u)} for k, g, norm, u in rows]
    argv = ["gcd-table", "--l", str(l), "--b", str(b), "--n", str(n), "--format"]
    payload = {"schema": 2, "l": str(l), "b": str(b), "n": n, "rows": dicts}
    assert run(argv + ["json"]) == (0, json.dumps(payload, indent=2) + "\n", "")
    text = " ".join("{" + ", ".join(f"{k}={v}" for k, v in d.items()) + "}" for d in dicts)
    assert run(argv + ["text"]) == (0, f"l: {l}\nb: {b}\nn: {n}\nrows: {text}\n", "")
    csv_rows = "".join(",".join(map(str, row)) + "\n" for row in rows)
    assert run(argv + ["csv"]) == (0, "n,gcd,normalizer,u_n\n" + csv_rows, "")


def test_profile_fields():
    code, doc, _ = run_json(["profile", "--l", "90", "--b", "-756"])
    assert code == 0
    assert (doc["r"], doc["t"], doc["sigma"]) == ("18", "6", "3")
    assert (doc["gamma"], doc["beta"]) == ("5", "-7")


def test_profile_with_f_sequence():
    code, doc, _ = run_json(["profile", "--l", "90", "--b", "-756", "--n", "4"])
    assert doc["f_sequence"] == ["1", "15", "204", "2745"]
    # an explicit --n 0 asks for an f-sequence too, and is refused like -1
    for n in (0, -1):
        assert run(["profile", "--l", "3", "--b", "9", "--n", str(n)]) == (2, "", f"error: need n >= 1, got {n}\n")


def test_n0_reports_threshold():
    code, doc, _ = run_json(["n0", "--l", "3", "--b", "9"])
    assert code == 0
    assert doc["n0"] == 7
    assert doc["threshold"] == "36"


def test_classify_recurrence():
    code, doc, _ = run_json(["classify", "--seq", "rec:2,1", "--n", "3"])
    assert code == 0
    assert doc["kind"] == "recurrence"
    assert doc["terms"] == ["1", "2", "5"]
    assert doc["fail_index"] == 4
    assert doc["threshold_check"]["applicable"] is True
    assert doc["threshold_check"]["threshold"] == 5


@pytest.mark.parametrize("n", [6, 7])
def test_classify_gorenstein_fields_match_gor(n):
    argv = ["--seq", "rec:3,9", "--n", str(n)]
    _, gor, _ = run_json(["gor", *argv])
    _, cls, _ = run_json(["classify", *argv])
    for key in ("gorenstein", "point", "fails_at", "witness"):
        assert cls.get(key) == gor.get(key)


@pytest.mark.parametrize("n", [6, 7, 9])
@pytest.mark.parametrize("horizon", [0, 1, 6, 7, 8, 64, 10**20])
def test_classify_fail_index_matches_gorenstein_fail_index(n, horizon):
    # rec:3,9 first fails at 7, on both sides of the prefix; the deprecated
    # --horizon is accepted and ignored, whatever its value
    argv = ["classify", "--seq", "rec:3,9", "--n", str(n), "--horizon", str(horizon)]
    code, doc, _ = run_json(argv)
    assert code == 0
    assert doc["fail_index"] == gorenstein_fail_index(3, 9) == 7
    assert "fail_horizon" not in doc


def test_classify_fail_index_is_exact():
    # the family fails at 84, past the 64 terms classify once searched
    m = lcm(*range(1, 81))
    code, doc, err = run_json(["classify", "--seq", f"rec:{2 * m},{-m * m}", "--n", "5"])
    assert code == 0, err
    assert doc["gorenstein"] is True
    assert doc["fail_index"] == 84
    # an ell-pair is Gorenstein for every n
    code, doc, err = run_json(["classify", "--seq", "rec:3,-1", "--n", "5"])
    assert code == 0, err
    assert doc["fail_index"] is None and "fail_horizon" not in doc


RUN_MAIN = "import sys; from lhcone.cli import main; sys.exit(main(sys.argv[1:]))"


def test_classify_huge_horizon_returns():
    # the horizon once sized a list of terms built before the search
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argv = ["classify", "--seq", "rec:3,9", "--n", "3", "--horizon", str(10**20)]
    proc = subprocess.run(
        [sys.executable, "-c", RUN_MAIN, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["fail_index"] == 7


@pytest.mark.parametrize("l", [1, 2, 10])
@pytest.mark.parametrize("n", [3, 50])
def test_classify_accepts_b_zero(l, n):
    # b = 0 has no gcd profile; the family is Gorenstein for every n
    argv = ["--seq", f"rec:{l},0", "--n", str(n)]
    _, gor, _ = run_json(["gor", *argv])
    code, cls, err = run_json(["classify", *argv])
    assert code == 0, err
    for key in ("gorenstein", "point", "fails_at", "witness"):
        assert cls.get(key) == gor.get(key)
    assert cls["fail_index"] is None
    assert "profile" not in cls and "threshold_check" not in cls


def test_classify_profile_matches_profile():
    _, cls, _ = run_json(["classify", "--seq", "rec:90,-756", "--n", "4"])
    _, prof, _ = run_json(["profile", "--l", "90", "--b", "-756"])
    assert cls["profile"] == {k: prof[k] for k in ("r", "t", "sigma", "gamma", "beta")}


def test_classify_u_recognition():
    code, doc, _ = run_json(["classify", "--seq", "list:1,2,5,8,19"])
    assert doc["u_generation"]["status"] == "recognized"
    assert doc["u_generation"]["u"] == ["3", "3", "2", "3"]
    assert doc["gorenstein"] is True


def test_classify_coprimality_violation():
    code, doc, _ = run_json(["classify", "--seq", "list:2,4"])
    assert doc["u_generation"]["status"] == "hypothesis-violated"


def test_crosscheck_agreement_exit_zero():
    code, doc, _ = run_json(["crosscheck", "--seq", "list:1,1,2,3,5"])
    assert code == 0
    assert doc["agree"] is True
    assert doc["recursion_gorenstein"] is False


def test_parse_error_exits_two():
    code, _, err = run(["gor", "--seq", "zzz:1"])
    assert code == 2
    assert "unknown kind" in err


def test_missing_length_exits_two():
    code, _, err = run(["series", "--seq", "rec:3,9", "--m", "5"])
    assert code == 2
    assert "--n is required" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gor", "--seq", "list:1,2,3", "--n", "-1"],
        ["series", "--seq", "list:1,2,3", "--n", "-2", "--m", "3"],
        ["product", "--seq", "list:1,2,3", "--n", "0"],
    ],
)
def test_list_spec_rejects_n_below_one(argv):
    # a negative n once sliced terms off the end of the list
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert "need n >= 1" in err


def test_unexpected_exception_is_an_internal_error():
    with mock.patch("lhcone.cli.numerator_H", side_effect=ZeroDivisionError("boom")):
        code, out, err = run(["numerator", "--seq", "list:1,2"])
    assert code == 3 and out == ""
    assert err == "internal error: ZeroDivisionError: boom\n"


def test_budget_cap_exits_two(monkeypatch):
    monkeypatch.setenv("LHCONE_BUDGET", "5")
    code, _, err = run(["series", "--seq", "list:1,2,3", "--m", "30"])
    assert code == 2
    assert "nodes" in err


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_invalid_budget_exits_two(monkeypatch, raw):
    monkeypatch.setenv("LHCONE_BUDGET", raw)
    code, out, err = run(["series", "--seq", "list:1,2", "--m", "3"])
    assert code == 2 and out == ""
    assert "LHCONE_BUDGET" in err


def test_long_sequence_series():
    code, doc, _ = run_json(["series", "--seq", LONG_ONES, "--m", "0"])
    assert code == 0
    assert doc["coefficients"] == ["1"]


def test_long_sequence_hstar():
    code, doc, _ = run_json(["hstar", "--seq", LONG_ONES])
    assert code == 0
    assert doc["coefficients"] == ["1"]


def test_wide_hstar_hits_budget_cleanly(monkeypatch):
    # the h*-vector of (1, 1000, 1000000) alone has about 3 million
    # coefficients, far past the cap
    monkeypatch.setenv("LHCONE_BUDGET", "10000")
    code, out, err = run(["hstar", "--seq", "list:1,1000,1000000"])
    assert code == 2 and out == ""
    assert "nodes" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--seq", "list:1,2", "--m", str(10**20)],
        ["hstar", "--seq", "list:1,2", "--t", str(10**20)],
        ["product", "--seq", "list:1,100000000000000000000"],
    ],
)
def test_huge_degree_hits_budget_cleanly(argv):
    # the answer alone has 1e20 + 1 entries, or product's division runs
    # through degree 2e20 + 1; each is charged before any work
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert "nodes" in err and "Traceback" not in err


# the enumeration commands, each with its degree flag or none; list: specs
# only, since term generation for other kinds has no budget
FUZZED_COMMANDS = [
    ("series", "--m"),
    ("numerator", None),
    ("hstar", None),
    ("hstar", "--t"),
    ("product", None),
    ("crosscheck", None),
]


@given(
    st.sampled_from(FUZZED_COMMANDS),
    st.lists(st.one_of(st.integers(1, 12), st.integers(1, 10**6)), min_size=1, max_size=6),
    st.one_of(
        st.integers(-(10**20), -1),
        st.integers(0, 40),
        st.integers(10**20 - 10, 10**20 + 10),
    ),
)
@settings(max_examples=150, deadline=None)
def test_enumeration_commands_never_crash(command, terms, degree):
    name, flag = command
    argv = [name, "--seq", "list:" + ",".join(map(str, terms))]
    if flag is not None:
        argv += [flag, str(degree)]
    with mock.patch.dict(os.environ, {"LHCONE_BUDGET": "10000"}):
        code, out, err = run(argv)
    assert code in (0, 1, 2), err
    if code == 2:
        assert out == ""
    else:
        json.loads(out)
    assert "Traceback" not in err


@given(
    st.sampled_from(["gor", "classify"]),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.integers(-3, 40),
    st.one_of(st.none(), st.integers(-(10**20), 10**20)),
)
@settings(max_examples=200, deadline=None)
def test_recurrence_commands_never_crash(command, l, b, n, horizon):
    # b = 0 is refused by classify's gcd profile, invalid pairs by the parser
    argv = [command, "--seq", f"rec:{l},{b}", "--n", str(n)]
    if command == "classify" and horizon is not None:
        argv += ["--horizon", str(horizon)]
    code, out, err = run(argv)
    assert code in (0, 1, 2), err
    if code == 2:
        assert out == ""
    else:
        json.loads(out)
    assert "Traceback" not in err


@given(
    st.sampled_from(["gor", "classify", "crosscheck", "numerator", "hstar", "product", "series"]),
    st.one_of(
        st.sampled_from(["rec:3,9", "rec:1,1", "rec:4,-1", "rec:6,-9"]),
        st.builds("kl:{},{}".format, st.integers(2, 9), st.integers(2, 9)),
        st.builds("ell:{}".format, st.integers(2, 9)),
        st.builds("onemodk:{}".format, st.integers(1, 9)),
    ),
    st.one_of(
        st.integers(-3, 12),
        st.integers(10**4 + 1, 10**4 + 3),
        st.integers(10**20 - 10, 10**20 + 10),
    ),
)
@settings(max_examples=150, deadline=None)
def test_family_specs_never_crash(command, spec, n):
    # family terms are generated only after --n is charged against the budget
    argv = [command, "--seq", spec, "--n", str(n)] + (["--m", "6"] if command == "series" else [])
    with mock.patch.dict(os.environ, {"LHCONE_BUDGET": "10000"}):
        code, out, err = run(argv)
    assert code in (0, 1, 2), err
    if code == 2:
        assert out == ""
    else:
        json.loads(out)
    assert "Traceback" not in err
    if n > 10**4:
        assert code == 2 and err == f"error: asked for {n} terms, past the budget of 10000 nodes\n"


@pytest.mark.parametrize(
    "argv, terms",
    [
        (["gor", "--seq", "rec:3,9", "--n", str(10**20)], 10**20),
        (["series", "--seq", "rec:3,9", "--n", str(10**20), "--m", "3"], 10**20),
        (["gcd-table", "--l", "3", "--b", "9", "--n", str(10**20)], 10**20 + 1),
        (["profile", "--l", "3", "--b", "9", "--n", str(10**20)], 10**20 + 1),
        (["n0", "--l", "3", "--b", "9", "--horizon", str(10**20)], 2 * 10**20),
    ],
)
def test_huge_term_counts_hit_budget_before_any_term(argv, terms):
    # each would draw about 1e20 terms; the default budget stops it at once
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err == f"error: asked for {terms} terms, past the budget of 50000000 nodes\n"


def test_term_charge_admits_the_budget_itself(monkeypatch):
    monkeypatch.setenv("LHCONE_BUDGET", "10000")
    code, doc, _ = run_json(["gor", "--seq", "onemodk:1", "--n", "10000"])
    assert code == 0 and doc["n"] == 10000
    code, out, err = run(["gor", "--seq", "onemodk:1", "--n", "10001"])
    assert code == 2 and out == "" and "10001 terms" in err


def test_shared_parser_answers_like_a_fresh_one(monkeypatch):
    # one parser serves every call in the process: a usage error, a budget
    # error and answers in any order leave nothing behind for the next call
    from lhcone.cli import build_parser

    monkeypatch.setenv("LHCONE_BUDGET", "10000")
    calls = [
        ["gor", "--seq", "ell:3", "--n", "6"],
        ["gor", "--sequence", "ell:3"],
        ["classify", "--seq", "rec:3,9", "--n", "7", "--format", "text"],
        ["hstar", "--seq", "list:1,1000,1000000"],
        ["gor", "--seq", "rec:3,9", "--n", "7", "--format", "csv"],
        ["classify", "--seq", "list:1,3,5"],
        ["not-a-command"],
        ["gor", "--seq", "ell:3", "--n", "6"],
    ]

    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"exit {exc.code}"
        return code, out.getvalue(), err.getvalue()

    shared = [outcome(argv) for argv in calls + calls[::-1]]
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls + calls[::-1]:
        build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared[: len(calls)]] == [0, "exit 2", 0, 2, 1, 0, "exit 2", 0]
    assert "usage: lhcone" in shared[1][2] and "nodes" in shared[3][2]
    # the parser holds no command function: one rebound on the module runs
    with mock.patch("lhcone.cli.cmd_gor", return_value=7):
        assert main(["gor", "--seq", "ell:3", "--n", "2"]) == 7


FAULTY_ENGINE = """
import sys
from lhcone import enumeration
from lhcone.cli import main

assert False, "asserts must be stripped in this run"
exact = enumeration._lattice
# an engine that counts the origin twice
enumeration._lattice = lambda *args: [c + (k == 0) for k, c in enumerate(exact(*args))]
for compute in (enumeration.numerator_H, enumeration.h_star):
    try:
        compute((1, 2))
    except enumeration.InvariantViolation:
        continue
    sys.exit(f"{compute.__name__} accepted a faulty engine")
sys.exit(main([sys.argv[1], "--seq", "list:1,3,5"]))
"""


@pytest.mark.parametrize("command", ["numerator", "hstar"])
def test_invariant_survives_optimize(command):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAULTY_ENGINE, command],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error:") and proc.stderr.count("\n") == 1


FAULTY_RECURSION = """
import sys
from lhcone import enumeration
from lhcone.cli import main
from lhcone.gorenstein import GorensteinResult

assert False, "asserts must be stripped in this run"
# a recursion whose Gorenstein point is all ones: the wrong sum |c|
enumeration.lecture_hall_gorenstein = lambda s: GorensteinResult((1,) * len(s), None, None)
try:
    enumeration.product_form((1, 2))
except enumeration.InvariantViolation:
    pass
else:
    sys.exit("product_form accepted exponents whose sum is not |c|")
sys.exit(main(["product", "--seq", "kl:2,3", "--n", "4"]))
"""


def test_product_gorenstein_check_survives_optimize():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAULTY_RECURSION],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error:") and proc.stderr.count("\n") == 1
    assert "the Gorenstein point to 4" in proc.stderr


FAULTY_FAIL_INDEX = """
import sys
from lhcone import cli
from lhcone.cli import main

assert False, "asserts must be stripped in this run"
# a family index of 6, against a 6-term prefix that is Gorenstein (rec:3,9
# fails at 7); a failing prefix's index is the family's and is not checked
cli.gorenstein_fail_index = lambda l, b: 6
sys.exit(main(["classify", "--seq", "rec:3,9", "--n", "6"]))
"""


def test_classify_fail_index_check_survives_optimize():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAULTY_FAIL_INDEX],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "internal error: prefix is Gorenstein, family fails at 6\n"


FAULTY_SEQUENCES = """
import math
import sys
from lhcone import gcd_structure, gorenstein
from lhcone.cli import main
from lhcone.sequences import InvariantViolation

assert False, "asserts must be stripped in this run"


def last_term_plus_one(generate):
    def faulty(*args):
        s = generate(*args)
        return s[:-1] + [s[-1] + 1]

    return faulty


def sixth_term_plus_one(terms):
    def faulty(*args):
        for j, x in enumerate(terms(*args), start=1):
            yield x + 1 if j == 6 else x

    return faulty


# generators whose last term is one too large (of the unending recurrence
# terms, the sixth: the last that gcd-table and profile --n 5 draw), and on
# request a gcd that doubles
gcd_structure.recurrence_terms = sixth_term_plus_one(gcd_structure.recurrence_terms)
gorenstein.generate_from_u = last_term_plus_one(gorenstein.generate_from_u)
try:
    gorenstein.u_generated_point((3, 3), 3)
except InvariantViolation:
    pass
else:
    sys.exit("u_generated_point accepted a faulty sequence")
if sys.argv[1] == "doubling-gcd":
    gcd_structure.gcd = lambda *args: 2 * math.gcd(*args)
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize(
    "fault, argv, check",
    [
        ("doubling-gcd", ["profile", "--l", "3", "--b", "9"], "sigma*t does not divide"),
        # the walk of f checks h_5 = sigma^2 against the faulty f_6, which
        # the rows and terms printed never read; t = 6, sigma = 3 on (90, -756)
        ("-", ["profile", "--l", "90", "--b", "-756", "--n", "5"], "gcd(f_6, f_5) != sigma^2"),
        ("-", ["gcd-table", "--l", "90", "--b", "-756", "--n", "5"], "gcd(f_6, f_5) != sigma^2"),
        ("-", ["gcd-table", "--l", "9", "--b", "6", "--n", "5"], "gcd(f_6, f_5) != sigma^2"),
        ("-", ["profile", "--l", "9", "--b", "6", "--n", "5"], "gcd(f_6, f_5) != sigma^2"),
        # n0 tests its growth bound on the same walk, so its checks run too
        ("-", ["n0", "--l", "9", "--b", "6"], "gcd(f_6, f_5) != sigma^2"),
    ],
)
def test_gcd_invariants_survive_optimize(fault, argv, check):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", FAULTY_SEQUENCES, fault, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error:") and proc.stderr.count("\n") == 1
    assert check in proc.stderr


def test_invariant_violation_is_one_class():
    import lhcone
    from lhcone import enumeration, gcd_structure, gorenstein, sequences

    assert lhcone.InvariantViolation is enumeration.InvariantViolation
    assert gcd_structure.InvariantViolation is gorenstein.InvariantViolation is sequences.InvariantViolation
    assert lhcone.InvariantViolation is sequences.InvariantViolation


def test_answers_past_the_int_str_limit():
    # CPython caps int <-> str conversion at 4300 digits by default; a
    # 4401-digit term must parse and a 4401-digit point must print
    code, doc, err = run_json(["gor", "--seq", "list:1,1" + "0" * 4400])
    assert code == 0, err
    assert doc["point"] == ["1", "1" + "0" * 4399 + "1"]
    code, out, _ = run(["gor", "--seq", "list:1,1" + "0" * 4400, "--format", "text"])
    assert code == 0 and out.endswith("point: 1 1" + "0" * 4399 + "1\n")


def library_answer(s):
    """The library's int answer, as text the way the CLI prints it."""
    result = lecture_hall_gorenstein(s)
    if result.gorenstein:
        return {"gorenstein": True, "point": [str(c) for c in result.point]}
    return {"gorenstein": False, "fails_at": result.fails_at, "witness": str(result.witness)}


def cli_answer(argv):
    code, doc, err = run_json(argv)
    assert code in (0, 1), err
    return {key: doc[key] for key in ("gorenstein", "point", "fails_at", "witness") if key in doc}


def mixed_list(rng, start, steps):
    # u-steps s_j = u*s_{j-1} - s_{j-2} and division steps s_j = k*s_{j-1}
    # (integral: c_j = k*c_{j-1} + 1) in the order given, then a free term
    s = [1, start]
    for kind in steps:
        s.append(rng.randint(2, 6) * s[-1] - s[-2] if kind == "u" else rng.randint(1, 9) * s[-1])
    s.append(s[-1] + rng.randint(1, 10**6))
    return s[1:]


def mixed_lists():
    rng = random.Random(12)
    runs = ["u" * 40 + "d" * 5 + "u" * 40, "d" * 30 + "u" * 30 + "d" * 30, "ud" * 40, "uudd" * 20]
    return [mixed_list(rng, 10 ** rng.randint(300, 400) + 1, run) for run in runs]


def test_printed_point_is_the_int_point_on_the_corpus():
    from test_enumeration import CORPUS

    for s in CORPUS:
        spec = "list:" + ",".join(map(str, s))
        assert cli_answer(["gor", "--seq", spec]) == library_answer(s)
        assert cli_answer(["classify", "--seq", spec]) == library_answer(s)


@pytest.mark.parametrize("spec", ["ell:2", "ell:3", "ell:4", "ell:5", "ell:6", "kl:2,5", "kl:7,3", "onemodk:7"])
def test_printed_point_is_the_int_point_on_families(spec):
    # the short points are built in int, the long ones in Decimal
    for n in (1, 2, 400, 1100, 2000):
        s = parse_sequence_spec(spec).realize(n)
        assert cli_answer(["gor", "--seq", spec, "--n", str(n)]) == library_answer(s)
    for n in (3, 1100):
        s = parse_sequence_spec(spec).realize(n)
        assert cli_answer(["classify", "--seq", spec, "--n", str(n)]) == library_answer(s)


def test_printed_point_is_the_int_point_on_division_steps_and_mixed_lists():
    # rec:l,0 takes division steps only: gor walks its point, and prints the
    # recursion's on the same terms given as a list; the lists switch between
    # u-steps and division steps both ways, then fail on a free term
    for spec, n in (("rec:2,0", 2000), ("rec:10,0", 1000)):
        s = parse_sequence_spec(spec).realize(n)
        assert cli_answer(["gor", "--seq", spec, "--n", str(n)]) == library_answer(s)
        assert cli_answer(["gor", "--seq", "list:" + ",".join(map(str, s))]) == library_answer(s)
        listed = "list:" + ",".join(map(str, s[: n // 2]))
        assert cli_answer(["classify", "--seq", listed]) == library_answer(s[: n // 2])
    for s in mixed_lists():
        for m in (len(s), len(s) - 1):
            spec = "list:" + ",".join(map(str, s[:m]))
            assert cli_answer(["gor", "--seq", spec]) == library_answer(s[:m])
            assert cli_answer(["classify", "--seq", spec]) == library_answer(s[:m])


FAMILY_SPECS = ["ell:2", "ell:3", "ell:7", "rec:2,-1", "rec:3,-1", "kl:2,5", "kl:7,3", "onemodk:1", "onemodk:7"]


def recursion_output(spec, n, fmt):
    """What gor prints for the index recursion's answer on the realized terms."""
    result = lecture_hall_gorenstein(parse_sequence_spec(spec).realize(n))
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(argparse.Namespace(format=fmt), {"seq": spec, "n": n, **cli._gor_fields(result)})
    return out.getvalue()


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_family_specs_print_the_recursion_answer_without_terms(spec):
    # the point built from the spec's multipliers prints byte for byte what
    # the recursion on the terms prints, and gor draws no term for it
    for n in (1, 2, 3, 50, 400, 1350, 2000):
        want = {fmt: recursion_output(spec, n, fmt) for fmt in ("json", "csv", "text")}
        with mock.patch.object(SequenceSpec, "realize", side_effect=AssertionError("terms drawn")):
            for fmt, out in want.items():
                assert run(["gor", "--seq", spec, "--n", str(n), "--format", fmt]) == (0, out, "")


@pytest.mark.parametrize("l", [1, 2, 3, 9, 12])
def test_rec_l_0_walks_the_point_the_recursion_gives(l):
    # the recursion gives c_j = l*c_{j-1} + 1 on rec:l,0, the walk over
    # l+1, l+1, ... with q = -l; gor and classify walk it and run no recursion
    spec = f"rec:{l},0"
    for n in (1, 2, 3, 40, 700):
        want = {fmt: recursion_output(spec, n, fmt) for fmt in ("json", "csv", "text")}
        answer = library_answer(generate_recurrence(l, 0, n))
        with mock.patch("lhcone.cli._index_recursion", side_effect=AssertionError("recursion run")):
            for fmt, out in want.items():
                assert run(["gor", "--seq", spec, "--n", str(n), "--format", fmt]) == (0, out, "")
            assert cli_answer(["classify", "--seq", spec, "--n", str(n)]) == answer


def test_family_points_at_n_one_and_two():
    for spec, second in (("ell:3", "4"), ("rec:3,-1", "4"), ("kl:2,5", "6"), ("onemodk:7", "9")):
        assert run_json(["gor", "--seq", spec, "--n", "1"])[1]["point"] == ["1"]
        assert run_json(["gor", "--seq", spec, "--n", "2"])[1]["point"] == ["1", second]


@pytest.mark.parametrize("cmd", ["gor", "classify"])
def test_family_route_charges_the_budget_before_any_entry(monkeypatch, cmd):
    argv = [cmd, "--seq", "ell:3", "--n", "2000"]
    monkeypatch.setenv("LHCONE_BUDGET", "1999")
    with mock.patch("lhcone.cli._two_term_walk") as built:
        assert run(argv) == (2, "", "error: asked for 2000 terms, past the budget of 1999 nodes\n")
    built.assert_not_called()
    monkeypatch.setenv("LHCONE_BUDGET", "2000")
    assert run(argv)[0] == 0


def walked(u, first, second):
    """The entries of cli._walk, its pieces joined."""
    return list(chain.from_iterable(cli._walk(u, -1, first, second)))


def assert_decimal_from_the_first_long_piece(pieces, ints, bits):
    """The pieces of a walk hold the plain int walk's entries, each piece of
    one type: int up to the first piece whose first entry passes bits, and
    Decimal from that piece on."""
    assert all(pieces)
    assert [str(c) for c in chain.from_iterable(pieces)] == [str(c) for c in ints]
    first = next((j for j, p in enumerate(pieces) if int(p[0]).bit_length() > bits), len(pieces))
    assert [{type(c) for c in p} for p in pieces] == [{int}] * first + [{decimal.Decimal}] * (len(pieces) - first)


def test_family_points_are_ints_until_an_entry_is_long():
    # ell:2's entries, 1, 3, 5, ..., never pass four digits
    point = tuple(walked(parse_sequence_spec("ell:2").multipliers(2000), 0, 1))
    assert point == tuple(range(1, 4000, 2)) and all(type(c) is int for c in point)
    # ell:3's pass _DECIMAL_BITS from entry 432 on; they are Decimal from the
    # first piece whose first entry passes it on, in the point and the terms
    u = parse_sequence_spec("ell:3").multipliers(2000)
    for seeds in ((0, 1), (1, 1)):
        pieces = list(cli._walk(u, -1, *seeds))
        assert_decimal_from_the_first_long_piece(pieces, _two_term_walk(u, -1, *seeds), cli._DECIMAL_BITS)
        assert isinstance(pieces[-1][0], decimal.Decimal)


@given(
    st.lists(st.integers(1, 10**6), max_size=40),
    st.integers(1, 10**9),
    st.integers(1, 200),
    st.lists(st.integers(1, 6), min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_walk_pieces_join_into_the_whole_walk(u, s1, bits, sizes):
    # cut anywhere, the pieces hold the plain int walk's entries, each piece
    # of one type, Decimal from the first piece that starts with a long entry
    sizes = iter(sizes)
    u = [ui + 1 for ui in u]  # u_i >= 2 keeps the terms positive
    with mock.patch.object(cli, "_DECIMAL_BITS", bits), \
            mock.patch.object(cli, "_piece_len", lambda k, x: next(sizes, k)):
        for first, second in ((0, 1), (1, s1)):
            pieces = list(cli._walk(u, -1, first, second))
            assert_decimal_from_the_first_long_piece(pieces, _two_term_walk(u, -1, first, second), bits)


def test_walk_switches_to_decimal_at_every_place_in_a_piece():
    # ell:3's point passes _DECIMAL_BITS at entry 432; in pieces of K
    # entries, that first long entry falls at every place of a piece, and
    # the walk turns Decimal at the start of the next piece
    u = parse_sequence_spec("ell:3").multipliers(800)
    ints = list(_two_term_walk(u, -1, 0, 1))
    for size in range(1, 12):
        with mock.patch.object(cli, "_piece_len", lambda k, x: size):
            pieces = list(cli._walk(u, -1, 0, 1))
        assert [len(p) for p in pieces[:-1]] == [size] * (len(pieces) - 1) and len(pieces[-1]) <= size + 1
        assert_decimal_from_the_first_long_piece(pieces, ints, cli._DECIMAL_BITS)


def test_walk_leaves_the_callers_decimal_context():
    # _EXACT is entered and left within each piece: between pieces and after
    # the walk the caller's context is current and rounds at its precision
    third = decimal.Decimal(1) / 3
    for prec in (None, 10):
        with decimal.localcontext() as ctx:
            if prec is not None:
                ctx.prec = prec
            walk = cli._walk(parse_sequence_spec("ell:3").multipliers(2000), -1, 0, 1)
            taken = list(chain.from_iterable(islice(walk, 12)))
            assert any(isinstance(c, decimal.Decimal) for c in taken)
            assert decimal.getcontext() is ctx
            assert decimal.Decimal(1) / 3 == round(third, prec or 28)
            assert len(str(decimal.Decimal(1) / 3)) == 2 + (prec or 28)
            rest = list(chain.from_iterable(walk))
            assert len(taken) + len(rest) == 2000
            assert decimal.getcontext() is ctx and decimal.getcontext().prec == (prec or 28)
            assert decimal.Decimal(1) / 3 == round(third, prec or 28)


def test_piece_len_fills_the_piece_chars():
    # an entry counts its digits and a json separator's 8 characters; a piece
    # at most doubles the one before it and holds one entry at least
    assert cli._PIECE_CHARS == 1 << 15
    assert [len(p) for p in cli._cut(range(200))] == [64, 128, 8]
    assert [len(p) for p in cli._cut([10**2000] * 60)] == [16] * 3 + [12]
    for x in (7, 10**300, -(10**300), decimal.Decimal(10**300), "1,2\n" + "9" * 300):
        chars = len(str(x).lstrip("-"))
        assert cli._PIECE_CHARS // (chars + 9) <= cli._piece_len(10**6, x) <= cli._PIECE_CHARS // (chars + 7)
    assert cli._piece_len(3, 7) == 6
    assert cli._piece_len(10**6, 10**40000) == 1 == cli._piece_len(10**6, decimal.Decimal(10**40000))


@pytest.mark.parametrize("argv", [["gor", "--seq", "ell:9", "--n", "800"], ["series", "--seq", "list:1,2", "--m", "5000"]],
                         ids=" ".join)
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_writes_stay_near_the_piece_chars(argv, fmt):
    # no write holds more than twice _PIECE_CHARS characters: a piece is at
    # most twice as long as the one before it, so the growing entries of a
    # walk overfill it only so far past the count its first entry gave
    argv = [*argv, "--format", fmt]
    pieces = Pieces()
    with mock.patch.object(cli, "_PIECE_CHARS", 4000), redirect_stdout(pieces):
        assert main(argv) == 0
    assert "".join(pieces) == run(argv)[1]
    assert len(pieces) > 10 and max(map(len, pieces)) <= 2 * 4000


class Count:
    """A stdout that keeps only the number of characters written."""

    chars = 0

    def write(self, text):
        self.chars += len(text)


@pytest.mark.parametrize("cmd", ["gor", "classify"])
def test_long_family_answers_are_never_held_whole(cmd):
    # 5.3 MB of json for gor, 10.6 MB for classify, written while the walk
    # goes: 0.4 and 0.2 MB are allocated at the peak, where the whole point
    # took 13.7 MB and the terms and the point 16.3 MB
    argv = [cmd, "--seq", "ell:3", "--n", "5000"]
    sink = Count()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 5_000_000 and peak < 1_500_000


@pytest.mark.parametrize("cmd", ["gor", "classify"])
def test_long_u_spec_answers_hold_no_term_list(cmd):
    # the terms of ell:3 through n = 3001 as a u: spec: checked for
    # positivity two terms at a time and walked as they are written, never
    # realized: 0.4 and 0.2 MB are allocated at the peak, where realizing
    # them took 1.3 MB for gor and 2.1 MB for classify, which walked them
    # again whole
    argv = [cmd, "--seq", "u:4" + ",3" * 2999 + ";1"]
    sink = Count()
    with mock.patch("lhcone.sequences.generate_from_u", side_effect=AssertionError("terms realized")), \
            mock.patch.object(SequenceSpec, "realize", side_effect=AssertionError("terms realized")):
        tracemalloc.start()
        try:
            with redirect_stdout(sink):
                assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert sink.chars > 1_900_000 and peak < 1_000_000


def _field(out, fmt, key):
    """The value of key in one answer, as json, csv or text prints it."""
    if fmt == "json":
        return json.loads(out)[key]
    lead = f"{key}," if fmt == "csv" else f"{key}: "
    return next(line[len(lead):] for line in out.splitlines() if line.startswith(lead))


@pytest.mark.parametrize(
    "u_spec, family",
    [("u:4" + ",3" * 699 + ";1", "ell:3"), ("u:8" + ",5,7" * 149 + ",5;1", "kl:5,7"), ("u:3,2;1", "kl:2,2")],
    ids=["ell:3", "kl:5,7", "kl:2,2"],
)
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_u_spec_prints_the_terms_and_point_of_its_family(u_spec, family, fmt):
    # u:4,3,...;1 is ell:3 and u:l+1,k,l,k,...;1 is kl:k,l: the same walk
    # from the same seeds, past the first Decimal piece on the long ones
    n = str(u_spec.count(",") + 2)
    for cmd, key in (("gor", "point"), ("classify", "terms"), ("classify", "point")):
        code, out, err = run([cmd, "--seq", u_spec, "--format", fmt])
        want = run([cmd, "--seq", family, "--n", n, "--format", fmt])
        assert (code, err) == (0, "") and want[0] == 0
        assert _field(out, fmt, key) == _field(want[1], fmt, key)


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_classify_decides_family_specs_by_theorem(spec):
    # u comes from the spec, not from recognizing the terms, the point from
    # u, not from the recursion, and the family is Gorenstein for every n
    with mock.patch("lhcone.cli._coprimality_sweep", side_effect=AssertionError("u recognized")), mock.patch(
        "lhcone.cli._index_recursion", side_effect=AssertionError("recursion run")
    ):
        code, doc, err = run_json(["classify", "--seq", spec, "--n", "40"])
    assert code == 0, err
    terms = parse_sequence_spec(spec).realize(40)
    assert doc["u_generation"] == {"status": "recognized", "u": [str(u) for u in recognize_u_generated(terms)]}
    assert doc["point"] == [str(c) for c in lecture_hall_gorenstein(terms).point]
    assert doc["fail_index"] is None


ELL3_LIST = "list:" + ",".join(map(str, parse_sequence_spec("ell:3").realize(2000)))


@pytest.mark.parametrize(
    "spec",
    [
        ELL3_LIST,
        "u:4" + ",3" * 1998 + ";7",
    ],
    ids=["ell:3 as a list", "u with s1 = 7"],
)
def test_classify_walks_the_point_of_recognized_multipliers(spec):
    # long u-generated terms that are no family spec: the point is walked
    # from the u of their u-steps (a u: spec's own), not run through the
    # recursion, and prints byte for byte what the recursion's answer prints
    parsed = parse_sequence_spec(spec)
    terms = parsed.realize()
    payload = {
        "seq": spec,
        "kind": parsed.kind,
        "n": len(terms),
        "terms": _Decimals(terms),
        "u_generation": {"status": "recognized", "u": _Decimals(recognize_u_generated(terms))},
        **cli._gor_fields(lecture_hall_gorenstein(terms)),
    }
    for fmt in ("json", "csv", "text"):
        want = io.StringIO()
        with redirect_stdout(want):
            cli._emit(argparse.Namespace(format=fmt), payload)
        with mock.patch("lhcone.cli._index_recursion", side_effect=AssertionError("recursion run")):
            assert run(["classify", "--seq", spec, "--format", fmt]) == (0, want.getvalue(), "")


LONG_U = "u:4" + ",3" * 1998 + ";7"


@pytest.mark.parametrize(
    "spec, n",
    [(LONG_U, None), (LONG_U, 1200), ("u:3,3,2,3;5", 3), ("u:5,2,2;3", None), ("u:2;5", 1), ("u:1;2", 2)],
    ids=["long s1 = 7", "long s1 = 7, n = 1200", "s1 = 5, n = 3", "s1 = 3", "s1 = 5, n = 1", "u_1 = 1"],
)
def test_u_specs_walk_what_the_recursion_answers(spec, n):
    # gor walks the point and classify the terms and the point from the
    # spec's multipliers; both print byte for byte what the recursion's
    # answer on the realized terms prints
    terms = parse_sequence_spec(spec).realize(n)
    fields = cli._gor_fields(lecture_hall_gorenstein(terms))
    u = _Decimals(recognize_u_generated(terms))
    payloads = {
        "gor": {"seq": spec, "n": len(terms), **fields},
        "classify": {
            "seq": spec,
            "kind": "u",
            "n": len(terms),
            "terms": _Decimals(terms),
            "u_generation": {"status": "recognized", "u": u},
            **fields,
        },
    }
    argv = ["--seq", spec] + ([] if n is None else ["--n", str(n)])
    for cmd, payload in payloads.items():
        for fmt in ("json", "csv", "text"):
            want = io.StringIO()
            with redirect_stdout(want):
                cli._emit(argparse.Namespace(format=fmt), payload)
            walk = mock.Mock(wraps=cli._walk)
            with mock.patch("lhcone.cli._index_recursion", side_effect=AssertionError("recursion run")), \
                    mock.patch.object(cli, "_walk", walk):
                assert run([cmd, *argv, "--format", fmt]) == (0, want.getvalue(), "")
            # each walk once: the point's, and classify's of the terms
            seeds = sorted(c.args[2:] for c in walk.call_args_list)
            assert seeds == ([(0, 1)] if cmd == "gor" else sorted([(0, 1), (1, terms[0])]))


def emitted(payload, fmt):
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(argparse.Namespace(format=fmt), payload)
    return out.getvalue()


def test_gor_walks_the_point_of_a_u_generated_list():
    # ell:3's 2,000 terms given as a list: gor finds u from their u-steps,
    # runs neither the recursion nor the coprimality sweep, and prints the
    # recursion's answer byte for byte
    terms = parse_sequence_spec(ELL3_LIST).realize()
    payload = {"seq": ELL3_LIST, "n": 2000, **cli._gor_fields(lecture_hall_gorenstein(terms))}
    walk = mock.Mock(wraps=cli._walk)
    for fmt in ("json", "csv", "text"):
        with mock.patch("lhcone.cli._index_recursion", side_effect=AssertionError("recursion run")), \
                mock.patch("lhcone.cli._coprimality_sweep", side_effect=AssertionError("sweep run")), \
                mock.patch.object(cli, "_walk", walk):
            assert run(["gor", "--seq", ELL3_LIST, "--format", fmt]) == (0, emitted(payload, fmt), "")
    assert [c.args[2:] for c in walk.call_args_list] == [(0, 1)] * 3


@pytest.mark.parametrize("spec, n, fmt", [("rec:1,1", 2000, "json"), ("list:2,4", None, "json"), ("list:2,4,6", None, "text")])
def test_gor_runs_no_coprimality_sweep(spec, n, fmt):
    # terms with a step that is no u-step go to the recursion at once: gor
    # needs no verdict on u-generation, so it pays no gcd per pair
    argv = ["gor", "--seq", spec, "--format", fmt] + ([] if n is None else ["--n", str(n)])
    with mock.patch("lhcone.cli._coprimality_sweep", side_effect=AssertionError("sweep run")), \
            mock.patch("lhcone.sequences.gcd", side_effect=AssertionError("gcd taken")):
        got = run(argv)
    terms = parse_sequence_spec(spec).realize(n)
    result = lecture_hall_gorenstein(terms)
    payload = {"seq": spec, "n": len(terms), **cli._gor_fields(result)}
    assert got == (0 if result.gorenstein else 1, emitted(payload, fmt), "")


def test_gor_draws_only_the_recurrence_terms_the_recursion_reads():
    # rec:9,6 fails at index 4: gor draws its terms one at a time and stops
    # there; realizing all 20,000 first allocated 88 MB at the peak
    sink = Count()
    tracemalloc.start()
    try:
        with redirect_stdout(sink):
            assert main(["gor", "--seq", "rec:9,6", "--n", "20000"]) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars > 0 and peak < 2_000_000
    # rec:1,0, whose every step is a u-step, gets its point 1..n from the
    # walk over the u of its u-steps, without realized terms
    with mock.patch.object(SequenceSpec, "realize", side_effect=AssertionError("terms realized")):
        code, doc, err = run_json(["gor", "--seq", "rec:1,0", "--n", "300"])
    assert (code, err) == (0, "") and doc["point"] == [str(j) for j in range(1, 301)]


class Digest:
    """A stdout that keeps only a hash of the text written."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())


def test_classify_streams_recurrence_terms():
    # rec:9,6 is not u-generated from step 2 on: classify prints its 5,000
    # terms as they are drawn and never realizes them.  0.13 MB is allocated
    # at the peak, where the realized terms took 5.74 MB
    terms = generate_recurrence(9, 6, 5000)
    with pytest.raises(CoprimalityError) as exc:
        recognize_u_generated(terms)
    payload = {
        "seq": "rec:9,6",
        "kind": "recurrence",
        "n": 5000,
        "terms": _Decimals(terms),
        "u_generation": {"status": "hypothesis-violated", "detail": str(exc.value)},
        **cli._gor_fields(lecture_hall_gorenstein(terms)),
        "profile": cli._profile_fields(gcd_profile(9, 6)),
        "fail_index": gorenstein_fail_index(9, 6),
        "threshold_check": failure_threshold_check(9, 6)._asdict(),
    }
    # the oracle's terms pass CPython's default limit on int -> str
    # conversion, which main lifts for its own call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        want = hashlib.sha256(emitted(payload, "json").encode()).hexdigest()
    finally:
        set_limit(limit)
    del terms, payload
    sink = Digest()
    with mock.patch.object(SequenceSpec, "realize", side_effect=AssertionError("terms realized")):
        tracemalloc.start()
        try:
            with redirect_stdout(sink):
                assert main(["classify", "--seq", "rec:9,6", "--n", "5000"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert sink.hash.hexdigest() == want and peak < 2_000_000


@pytest.mark.parametrize("l, b, n", [(9, 6, 400), (3, 5, 600), (4, -4, 800), (2, 1, 900)])
def test_classify_prints_recurrence_terms_through_the_walk(l, b, n):
    # rec:l,b's terms are the walk over l, l, ... with q = b from (0, 1),
    # printed as a point is: Decimal from the first piece whose first entry
    # passes _DECIMAL_BITS on, with the digits of the realized terms
    terms = generate_recurrence(l, b, n)
    pieces, real = [], cli._walk

    def walk(p, q, first, second):
        for piece in real(p, q, first, second):
            pieces.append(piece)
            yield piece

    assert_decimal_from_the_first_long_piece(list(cli._walk(repeat(l, n - 1), b, 0, 1)), terms, cli._DECIMAL_BITS)
    for fmt in ("json", "csv", "text"):
        pieces.clear()
        with mock.patch.object(cli, "_walk", walk):
            code, out, err = run(["classify", "--seq", f"rec:{l},{b}", "--n", str(n), "--format", fmt])
        assert (code, err) == (0, "") and printed_terms(out, fmt) == [str(x) for x in terms]
        assert_decimal_from_the_first_long_piece(pieces, terms, cli._DECIMAL_BITS)
        assert isinstance(pieces[-1][0], decimal.Decimal)


@pytest.mark.parametrize("cmd", ["gor", "classify"])
def test_recurrence_specs_reject_n_below_one(cmd):
    # drawn lazily, an empty slice of the terms must not reach the recursion
    for spec in ("rec:9,6", "rec:1,0", "rec:3,-1"):
        for n in (0, -1, -40000):
            assert run([cmd, "--seq", spec, "--n", str(n)]) == (2, "", f"error: need n >= 1, got {n}\n")


@pytest.mark.parametrize("spec, n", [("u:3,3,2,3;5", None), (LONG_U, 1200), ("u:1;2", None), ("u:2;5", 1)])
def test_classify_takes_the_multipliers_of_a_u_spec_from_the_spec(spec, n):
    # neither recognition nor a search of the terms' u-steps: the spec holds u
    argv = ["classify", "--seq", spec] + ([] if n is None else ["--n", str(n)])
    with mock.patch("lhcone.cli._coprimality_sweep", side_effect=AssertionError("u recognized")), \
            mock.patch("lhcone.cli._u_steps", side_effect=AssertionError("u-steps searched")):
        code, doc, err = run_json(argv)
    terms = parse_sequence_spec(spec).realize(n)
    assert (code, err) == (0, "")
    assert doc["u_generation"] == {"status": "recognized", "u": [str(u) for u in recognize_u_generated(terms)]}
    assert doc["terms"] == [str(x) for x in terms]


def test_classify_scans_the_u_steps_of_a_list_once():
    # ell:3's terms with the last one plus one: _answer finds the u-steps
    # up to the last step, and the coprimality sweep starts there, at the
    # pair that shares a factor, without scanning them again
    terms = parse_sequence_spec(ELL3_LIST).realize()
    terms[-1] += 1
    scan = mock.Mock(wraps=_u_steps)
    with mock.patch("lhcone.cli._u_steps", scan), mock.patch("lhcone.sequences._u_steps", scan):
        code, doc, err = run_json(["classify", "--seq", "list:" + ",".join(map(str, terms))])
    assert scan.call_count == 1
    with pytest.raises(CoprimalityError) as exc:
        recognize_u_generated(terms)
    assert (code, err) == (0, "")
    assert doc["u_generation"] == {"status": "hypothesis-violated", "detail": str(exc.value)}
    fields = json.loads(emitted(cli._gor_fields(lecture_hall_gorenstein(terms)), "json"))
    assert {key: doc[key] for key in fields} == fields


@pytest.mark.parametrize(
    "spec, status",
    [("list:2,4,6", "hypothesis-violated"), ("list:1,2,4", "hypothesis-violated"), ("list:1,3,4", "not-u-generated"),
     ("rec:1,1", "not-u-generated")],
)
def test_classify_sweeps_terms_that_are_not_u_generated(spec, status):
    # the sweep tells hypothesis-violated from not-u-generated, as
    # recognize_u_generated does
    code, doc, err = run_json(["classify", "--seq", spec, "--n", "3" if spec.startswith("list") else "9"])
    assert (code, err) == (0, "") and doc["u_generation"]["status"] == status
    if status == "hypothesis-violated":
        with pytest.raises(CoprimalityError) as exc:
            recognize_u_generated(parse_sequence_spec(spec).realize(3))
        assert doc["u_generation"]["detail"] == str(exc.value)


def test_classify_decides_recurrence_u_generation_without_a_sweep():
    # the status of rec:l,b comes from its u-step prefix and gcd(l, b)
    # (cmd_classify's docstring), as recognize_u_generated's sweep finds it
    wrong = []
    with mock.patch("lhcone.cli._coprimality_sweep", side_effect=AssertionError("terms swept")):
        for l in range(1, 13):
            for b in range(-40, 41):
                if l * l + 4 * b < 0:
                    continue
                for n in (1, 2, 3, 4, 5, 7, 40):
                    terms = generate_recurrence(l, b, n)
                    try:
                        u = recognize_u_generated(terms)
                        want = {"status": "not-u-generated"} if u is None else {
                            "status": "recognized", "u": [str(x) for x in u]
                        }
                    except CoprimalityError as exc:
                        want = {"status": "hypothesis-violated", "detail": str(exc)}
                    code, doc, err = run_json(["classify", "--seq", f"rec:{l},{b}", "--n", str(n)])
                    if (code, err, doc["u_generation"]) != (0, "", want):
                        wrong.append((l, b, n))
    assert wrong == []


@pytest.mark.parametrize("s1, k", [(1, 1999), (2, 40), (10**700 + 1, 30)], ids=["ell:3", "s1=2", "s1=10^700+1"])
def test_classify_prints_a_u_generated_list_as_its_walk(s1, k):
    # the terms of a list whose every step is a u-step are printed as the walk
    # from (1, s_1) over the recognized u, with the realized terms' digits
    terms = generate_from_u([4] + [3] * (k - 1), s1, k + 1)
    spec = "list:" + ",".join(map(str, terms))
    seeds, real = [], cli._walk

    def walk(p, q, first, second):
        seeds.append((first, second))
        return real(p, q, first, second)

    for fmt in ("json", "csv", "text"):
        with mock.patch.object(cli, "_walk", walk):
            code, out, err = run(["classify", "--seq", spec, "--format", fmt])
        assert (code, err) == (0, "") and printed_terms(out, fmt) == [str(x) for x in terms]
    assert seeds == [(0, 1), (1, s1)] * 3


@pytest.mark.parametrize("spec, n", [("rec:1,0", 50), ("rec:3,5", 2), ("rec:9,6", 1)])
def test_classify_recognizes_recurrence_terms_that_are_u_generated(spec, n):
    # rec:l,b with b != -1 whose every step is a u-step: the terms and the
    # point are walked over the u of the u-steps that _answer finds
    code, doc, err = run_json(["classify", "--seq", spec, "--n", str(n)])
    terms = parse_sequence_spec(spec).realize(n)
    assert (code, err) == (0, "")
    assert doc["u_generation"] == {"status": "recognized", "u": [str(u) for u in recognize_u_generated(terms)]}
    assert doc["terms"] == [str(x) for x in terms]
    assert doc["point"] == [str(c) for c in lecture_hall_gorenstein(terms).point]


@pytest.mark.parametrize("cmd", ["series", "numerator", "hstar"])
def test_coefficient_tables_are_degree_and_coefficient_rows(cmd):
    argv = [cmd, "--seq", "list:1,3,5"] + (["--m", "7"] if cmd == "series" else [])
    coeffs = run_json(argv)[1]["coefficients"]
    assert run([*argv, "--format", "csv"]) == (
        0, "degree,coefficient\n" + "".join(f"{d},{c}\n" for d, c in enumerate(coeffs)), ""
    )


def test_gor_refuses_a_matrix_entry_outside_the_grammar(tmp_path):
    # an exponent would build a 2,000,000-digit number before any budget
    m = tmp_path / "cone.txt"
    m.write_text("1 0\n-1 1e2000000\n")
    assert run(["gor", "--matrix", str(m)]) == (2, "", "error: line 2: bad entry '1e2000000'\n")


@pytest.mark.parametrize("index", [1])
def test_classify_prints_and_checks_the_walked_terms(index):
    # u:3,3;2 has the terms 2, 5, 13; one of the walked terms is made wrong,
    # and the terms printed are the walked ones: no realized list is left to
    # check them against
    real = cli._walk

    def one_term_off(p, q, first, second):
        x = list(chain.from_iterable(real(p, q, first, second)))
        x[index] += first  # the terms (seeds 1, s1) only
        return iter([x])

    with mock.patch.object(cli, "_walk", one_term_off):
        assert run(["gor", "--seq", "u:3,3;2"])[0] == 0
        code, out, err = run(["classify", "--seq", "u:3,3;2", "--format", "text"])
    assert (code, err) == (0, "") and "terms: 2 6 13\n" in out


def test_profile_fields_keep_their_order():
    prof = gcd_profile(90, -756)
    assert list(cli._profile_fields(prof).items()) == [
        ("r", "18"), ("t", "6"), ("sigma", "3"), ("gamma", "5"), ("beta", "-7")
    ]
    code, out, _ = run(["profile", "--l", "90", "--b", "-756"])
    assert list(json.loads(out)) == ["schema", "l", "b", "r", "t", "sigma", "gamma", "beta"]


def test_hstar_writes_its_vector_without_a_copy():
    seen, real = {}, cli.h_star

    def h_star(s):
        seen["hs"] = hs = real(s)
        return hs

    with mock.patch.object(cli, "h_star", h_star), \
            mock.patch.object(cli, "_emit", lambda args, payload, table=None: seen.update(payload=payload)):
        assert run(["hstar", "--seq", "list:1,3,5"]) == (0, "", "")
    assert seen["payload"]["coefficients"].items is seen["hs"].coeffs.coeffs


def test_decimals_inside_a_dict_are_flattened():
    payload = {"u_generation": {"status": "recognized", "u": _Decimals((4, 3))}, "e": _Decimals(())}
    for fmt, text in (
        ("text", "u_generation: {status=recognized, u=4 3}\ne: \n"),
        ("csv", 'key,value\nu_generation,"{status=recognized, u=4 3}"\ne,\n'),
        ("json", json.dumps({"schema": 2, "u_generation": {"status": "recognized", "u": ["4", "3"]}, "e": []}, indent=2) + "\n"),
    ):
        out = io.StringIO()
        with redirect_stdout(out):
            cli._emit(argparse.Namespace(format=fmt), payload)
        assert out.getvalue() == text


def printed_terms(out, fmt):
    """The terms classify printed, as strings."""
    if fmt == "json":
        return json.loads(out)["terms"]
    prefix = "terms," if fmt == "csv" else "terms: "
    return next(line for line in out.splitlines() if line.startswith(prefix))[len(prefix) :].split(" ")


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_classify_walks_family_terms_from_their_multipliers(spec):
    # the terms are the reference definition's, in every format, and the
    # spec is never realized: they are walked from its multipliers
    for n in (1, 2, 400, 1550):
        want = [str(x) for x in family_oracle(spec, n)]
        with mock.patch.object(SequenceSpec, "realize", side_effect=AssertionError("terms drawn")):
            for fmt in ("json", "csv", "text"):
                code, out, err = run(["classify", "--seq", spec, "--n", str(n), "--format", fmt])
                assert (code, err) == (0, "")
                assert printed_terms(out, fmt) == want


def test_text_values_stay_on_their_line(tmp_path):
    # a backslash, a carriage return and a line feed in a value are escaped,
    # so every line is one "key: value" and the value reads back
    m = tmp_path / "line\nbreak\r\\x.txt"
    m.write_text("1 0\n-1 1/2\n")
    code, out, err = run(["gor", "--matrix", str(m), "--format", "text"])
    assert code == 0, err
    assert "\r" not in out and out.endswith("\n")
    lines = out[:-1].split("\n")
    assert all(re.fullmatch(r"[a-z_]+: .*", line) for line in lines)
    assert [line.split(": ", 1)[0] for line in lines] == ["matrix", "gorenstein", "point"]
    value = lines[0].split(": ", 1)[1]
    assert re.sub(r"\\(.)", lambda e: {"\\": "\\", "r": "\r", "n": "\n"}[e.group(1)], value) == str(m)


def test_decimal_context_is_left_as_it_was():
    with decimal.localcontext() as ctx:
        decimal.getcontext().prec = 5
        for n in (300, 2000):
            code, doc, err = run_json(["gor", "--seq", "ell:3", "--n", str(n)])
            assert code == 0, err
            assert doc["point"] == [str(c) for c in ell_sequence_point(3, n)]
            assert decimal.getcontext() is ctx
            assert ctx.prec == 5 and not ctx.traps[decimal.Inexact]


SAME_UNDER_OPTIMIZE = """
import sys
from lhcone.cli import main

assert False, "asserts must be stripped in this run"
for line in sys.stdin:
    main(line.split())
"""


def test_printed_points_are_the_same_under_optimize():
    argvs = [
        ["gor", "--seq", "ell:3", "--n", "2000"],
        ["classify", "--seq", "kl:2,5", "--n", "1100"],
        ["gor", "--seq", "rec:10,0", "--n", "1000"],
        ["classify", "--seq", "rec:3,9", "--n", "7"],
    ]
    argvs += [["gor", "--seq", "list:" + ",".join(map(str, s))] for s in mixed_lists()]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SAME_UNDER_OPTIMIZE],
        input="".join(" ".join(argv) + "\n" for argv in argvs),
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == "".join(run(argv)[1] for argv in argvs)


def test_hstar_charges_its_answer_before_the_lattice(monkeypatch):
    # rec:5,6 n=9: the lattice charges 13,081,820 nodes up front and the
    # h*-vector, of degree below (n+1)*s_n, 14,396,710 more; a budget
    # between the two sums stops it at once, not after the lattice
    monkeypatch.setenv("LHCONE_BUDGET", "20000000")
    start = time.perf_counter()
    code, out, err = run(["hstar", "--seq", "rec:5,6", "--n", "9"])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: enumeration passed 20000000 nodes\n")


def test_hstar_refuses_a_huge_t_before_the_hstar_vector(monkeypatch):
    # rec:5,6 n=8 admits its h*-vector under the default budget, which takes
    # seconds to build; the Ehrhart counts to t = 1e20 do not, and are
    # charged first
    monkeypatch.delenv("LHCONE_BUDGET", raising=False)
    start = time.perf_counter()
    code, out, err = run(["hstar", "--seq", "rec:5,6", "--n", "8", "--t", str(10**20)])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: enumeration passed 50000000 nodes\n")


def test_product_budget_refusal_on_a_long_list_is_immediate(monkeypatch):
    # the denominator's 20,000 tail sums come before the budget charge
    monkeypatch.delenv("LHCONE_BUDGET", raising=False)
    terms = "list:" + ",".join(["1"] * 20000)
    start = time.perf_counter()
    code, out, err = run(["product", "--seq", terms])
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", "error: enumeration passed 50000000 nodes\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int <-> str limit")
def test_int_str_limit_is_restored():
    before = sys.get_int_max_str_digits()
    run(["gor", "--seq", "list:1,2"])
    assert sys.get_int_max_str_digits() == before
    with pytest.raises(SystemExit):
        run(["gor", "--n", "x"])
    assert sys.get_int_max_str_digits() == before


def test_crosscheck_has_no_degree_guard():
    # sum(d_i) = 3893 and (n+1)*s_n = 3016, past the guard of 1000 it once had
    code, doc, err = run_json(["crosscheck", "--seq", "kl:3,3", "--n", "7"])
    assert code == 0, err
    assert doc["agree"] is True and doc["recursion_gorenstein"] is True


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as ei:
        run(["not-a-command"])
    assert ei.value.code == 2


def test_output_is_byte_deterministic():
    _, a, _ = run(["hstar", "--seq", "list:1,3,5"])
    _, b, _ = run(["hstar", "--seq", "list:1,3,5"])
    assert a == b


def test_text_format():
    code, out, _ = run(["profile", "--l", "6", "--b", "36", "--format", "text"])
    assert code == 0
    assert "r: 6" in out and "schema" not in out


def test_series_csv_format():
    code, out, _ = run(["series", "--seq", "list:1", "--m", "2", "--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "degree,coefficient"
    assert lines[1:] == ["0,1", "1,1", "2,1"]


# quotes, backslashes, control, non-ASCII and astral characters, among others
json_text = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\r\x00\x1f\x7fé€\U0001f600'), st.characters()), max_size=8
)
decimal_lists = st.lists(
    st.one_of(
        st.integers(-(10**6), 10**6),
        st.integers(10**999, 10**1000 - 1),  # 1000 digits
        st.integers(-(10**1000) + 1, -(10**999)),
    ).flatmap(lambda i: st.sampled_from([i, decimal.Decimal(i)])),
    max_size=4,
).map(_Decimals)
row_tables = st.lists(json_text, min_size=1, max_size=4, unique=True).flatmap(
    lambda names: st.lists(
        st.tuples(*[st.one_of(st.integers(), st.integers(10**999, 10**1000 - 1))] * len(names)), max_size=4
    ).map(lambda rows: cli._Rows(tuple(names), rows))
)
# the types an answer holds: no plain lists, which the writer refuses
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), json_text, decimal_lists, row_tables),
    lambda kids: st.dictionaries(json_text, kids, max_size=4),
    max_leaves=20,
)


def as_strings(value):
    """value with each _Decimals list as the decimal strings the writer prints,
    and each _Rows table as the objects, its first entries numbers."""
    if isinstance(value, _Decimals):
        return [str(v) for v in value]
    if isinstance(value, cli._Rows):
        return [dict(zip(value.names, (row[0], *map(str, row[1:])))) for row in value.rows]
    if isinstance(value, dict):
        return {k: as_strings(v) for k, v in value.items()}
    return value


@given(json_values)
@settings(max_examples=300, deadline=None)
def test_writer_is_json_dumps_with_indent(value):
    # at the default body size
    out = io.StringIO()
    with redirect_stdout(out):
        _write_json(value)
    assert out.getvalue() == json.dumps(as_strings(value), indent=2) + "\n"


@given(json_values)
@settings(max_examples=100, deadline=None)
def test_streamed_writer_writes_json_dumps_with_indent(value):
    # pieces of one or two entries, so the lists drawn here span several
    out = io.StringIO()
    with mock.patch("lhcone.cli._PIECE_CHARS", 24), redirect_stdout(out):
        _write_json(value)
    assert out.getvalue() == json.dumps(as_strings(value), indent=2) + "\n"


def test_writer_refuses_what_json_dumps_refuses():
    with pytest.raises(TypeError, match="^Object of type float is not JSON serializable$"):
        _write_json(1.5)


@pytest.mark.parametrize("value", [[1], {"a": []}], ids=["list", "list in a dict"])
def test_writer_refuses_plain_lists(value):
    # no answer holds one: a list of integers is a _Decimals, a table a _Rows
    out = io.StringIO()
    message = "^Object of type list is not JSON serializable$"
    with redirect_stdout(out), pytest.raises(TypeError, match=message):
        _write_json(value)
    assert out.getvalue() == ""


EVERY_SUBCOMMAND = [
    ["gor", "--seq", "rec:3,9", "--n", "7"],
    ["gor", "--seq", "ell:3", "--n", "300"],
    ["series", "--seq", "kl:2,3", "--n", "4", "--m", "12"],
    ["numerator", "--seq", "list:1,3,5"],
    ["hstar", "--seq", "list:1,2,3", "--t", "4"],
    ["product", "--seq", "kl:2,3", "--n", "4"],
    ["product", "--seq", "list:11,10"],
    ["gcd-table", "--l", "6", "--b", "-9", "--n", "12"],
    ["profile", "--l", "6", "--b", "-9", "--n", "8"],
    ["n0", "--l", "3", "--b", "9"],
    ["n0", "--l", "3", "--b", "9", "--horizon", "20"],
    ["classify", "--seq", "rec:3,9", "--n", "7"],
    ["classify", "--seq", "list:2,4"],
    ["classify", "--seq", "ell:3", "--n", "5"],
    ["crosscheck", "--seq", "list:1,3,5"],
]


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=" ".join)
def test_json_output_is_json_dumps_of_itself(argv):
    code, out, err = run(argv)
    assert code in (0, 1), err
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


# the keys each argv of EVERY_SUBCOMMAND prints, in order; JSON puts
# "schema" before them
KEY_ORDER = {
    "gor --seq rec:3,9 --n 7": "seq n gorenstein fails_at witness",
    "gor --seq ell:3 --n 300": "seq n gorenstein point",
    "series --seq kl:2,3 --n 4 --m 12": "seq n m coefficients",
    "numerator --seq list:1,3,5": "seq n denominator_exponents coefficients palindromic",
    "hstar --seq list:1,2,3 --t 4":
        "seq n coefficients denominator_exponent power q1 symmetric unimodal ehrhart_counts",
    "product --seq kl:2,3 --n 4": "seq n product_form exponents",
    "product --seq list:11,10": "seq n product_form exponents",
    "gcd-table --l 6 --b -9 --n 12": "l b n rows",
    "profile --l 6 --b -9 --n 8": "l b r t sigma gamma beta f_sequence",
    "n0 --l 3 --b 9": "l b n0 threshold",
    "n0 --l 3 --b 9 --horizon 20": "l b n0 threshold horizon",
    "classify --seq rec:3,9 --n 7":
        "seq kind n terms u_generation gorenstein fails_at witness profile fail_index threshold_check",
    "classify --seq list:2,4": "seq kind n terms u_generation gorenstein point",
    "classify --seq ell:3 --n 5": "seq kind n terms u_generation gorenstein point fail_index",
    "crosscheck --seq list:1,3,5": "seq n recursion_gorenstein numerator_palindromic hstar_palindromic agree",
}


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=" ".join)
def test_keys_keep_their_order(argv):
    keys = KEY_ORDER[" ".join(argv)].split()
    code, out, err = run(argv)
    assert code in (0, 1), err
    assert list(json.loads(out)) == ["schema", *keys]
    code, out, err = run([*argv, "--format", "text"])
    assert code in (0, 1), err
    assert [line.split(": ", 1)[0] for line in out.splitlines()] == keys


def test_matrix_json_output_is_json_dumps_of_itself(tmp_path):
    m = tmp_path / "cone \"quoted\" é.txt"
    m.write_text("1 0 0\n-1 1/2 0\n0 -1/2 1/5\n", encoding="utf-8")
    code, out, err = run(["gor", "--matrix", str(m)])
    assert code in (0, 1), err
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


@pytest.mark.parametrize("argv", [*EVERY_SUBCOMMAND, ["gor", "--matrix", "QUOTED"]], ids=" ".join)
def test_csv_output_is_csv(argv, tmp_path):
    # a value with a comma or a quote (specs, dicts, the path) is quoted,
    # as csv.writer quotes it
    m = tmp_path / "cone \"quoted\" é.txt"
    m.write_text("1 0 0\n-1 1/2 0\n0 -1/2 1/5\n", encoding="utf-8")
    argv = [str(m) if a == "QUOTED" else a for a in argv]
    code, out, err = run([*argv, "--format", "csv"])
    assert code in (0, 1), err
    header, *rows = csv.reader(io.StringIO(out))
    assert rows and all(len(row) == len(header) for row in rows)
    written = io.StringIO()
    csv.writer(written, lineterminator="\n").writerows([header, *rows])
    assert written.getvalue() == out
    if header == ["key", "value"]:
        assert [f"{k}: {v}" for k, v in rows] == run([*argv, "--format", "text"])[1].splitlines()


# the first entry past _DECIMAL_BITS is entry j (0-based) of ell:3's point
# and terms (432) and of kl:7,3's point (283) and terms (284); the walk
# turns Decimal at the first piece that starts at or after it.  In pieces
# of 1, 2 or 5 entries, j falls on a piece's first entry, inside a piece
# or on its last; at n = j + 1, j is the walk's last entry
WALK_BOUNDARIES = [
    ["gor", "--seq", "ell:3", "--n", "800"],
    ["gor", "--seq", "ell:3", "--n", "721"],
    ["gor", "--seq", "ell:3", "--n", "433"],
    ["classify", "--seq", "ell:3", "--n", "800"],
    ["classify", "--seq", "kl:7,3", "--n", "600"],
    ["classify", "--seq", "kl:7,3", "--n", "473"],
    ["classify", "--seq", "kl:7,3", "--n", "285"],
]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND + WALK_BOUNDARIES, ids=" ".join)
def test_output_does_not_depend_on_the_piece_size(argv, fmt):
    want = run([*argv, "--format", fmt])
    for size in (1, 2, 5):
        with mock.patch.object(cli, "_piece_len", lambda k, x: size):
            assert run([*argv, "--format", fmt]) == want


class Pieces(list):
    """A stdout that keeps each write apart."""

    write = list.append


# what stands between two entries of a long list inside one piece
ENTRY_SEPARATOR = {"json": r'(?<=\d)",\n +"(?=\d)', "csv": r"(?<=\d)\n(?=\d)", "text": r"(?<=\d) (?=\d)"}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "argv", [["hstar", "--seq", "list:1,3,5"], ["series", "--seq", "list:1,2", "--m", "40"]], ids=" ".join
)
def test_long_lists_go_out_two_entries_a_piece(argv, fmt):
    # the memory bound, seen without measuring memory: no write holds more
    # entries of a list than _piece_len gives
    argv = [*argv, "--format", fmt]
    pieces = Pieces()
    with mock.patch.object(cli, "_piece_len", lambda k, x: 2), redirect_stdout(pieces):
        assert main(argv) == 0
    assert "".join(pieces) == run(argv)[1]
    assert max(len(re.findall(ENTRY_SEPARATOR[fmt], piece)) for piece in pieces) == 1


@given(
    st.sampled_from(["gcd-table", "profile", "n0"]),
    st.integers(-60, 60),
    st.integers(-900, 900),
    st.one_of(st.none(), st.integers(-3, 50), st.integers(10**20 - 10, 10**20 + 10)),
)
@settings(max_examples=300, deadline=None)
def test_gcd_commands_never_crash(command, l, b, n):
    argv = [command, "--l", str(l), "--b", str(b)]
    if n is not None or command == "gcd-table":
        argv += ["--horizon" if command == "n0" else "--n", str(3 if n is None else n)]
    with mock.patch.dict(os.environ, {"LHCONE_BUDGET": "10000"}):
        code, out, err = run(argv)
    assert code in (0, 2), err
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    else:
        json.loads(out)
    assert "Traceback" not in err


def test_pair_commands_refuse_the_same_pairs_alike():
    # profile, gcd-table and n0 check in one order, the charge, then the
    # pair, then the count, so a pair that one of them refuses all four
    # refuse with the pair rule's line, plain profile and l = 0 included
    commands = (["profile"], ["profile", "--n", "1"], ["gcd-table", "--n", "1"], ["n0"])
    refused = 0
    for l in range(-3, 5):
        for b in range(-9, 10):
            results = [run([*command, "--l", str(l), "--b", str(b)]) for command in commands]
            if any(code == 2 for code, _, _ in results):
                refused += 1
                error = f"error: need a positive recurrence with b != 0, got l={l}, b={b}\n"
                assert results == [(2, "", error)] * 4, (l, b)
            else:
                assert [code for code, _, _ in results] == [0] * 4, (l, b)
    assert refused == 109  # 152 pairs, 43 of them positive: b > 0 < l, or b < 0 with 4b >= -l^2


@pytest.mark.parametrize("horizon", [-3, -1, 0])
def test_n0_rejects_horizon_below_one(horizon):
    code, out, err = run(["n0", "--l", "3", "--b", "9", "--horizon", str(horizon)])
    assert (code, out, err) == (2, "", f"error: need horizon >= 1, got {horizon}\n")


@pytest.mark.parametrize(
    "argv, least",
    [
        (["numerator", "--seq", "ell:3", "--n", "6"], 5987),
        (["hstar", "--seq", "ell:3", "--n", "4"], 179),
        (["series", "--seq", "ell:3", "--n", "5", "--m", "30"], 55),
    ],
)
def test_least_admitting_budget_of_one_lattice_call(monkeypatch, argv, least):
    # every node is charged per state before the last layer is summed, so
    # the least budget that answers does not depend on how that sum is built
    monkeypatch.setenv("LHCONE_BUDGET", str(least))
    assert run(argv)[0] == 0
    monkeypatch.setenv("LHCONE_BUDGET", str(least - 1))
    assert run(argv) == (2, "", f"error: enumeration passed {least - 1} nodes\n")


def test_n0_on_double_root_pairs():
    # on l = 2m, b = -m^2 the reduced terms f_n are n (odd m) or n*2^(n-1)
    # (even m): the bound's f_n/h_{n-1} grows linearly, and n0 is the
    # README's closed form, proved in find_n0's docstring.  The scan would
    # first meet the bound past 4096 terms from odd m = 65 on
    for m in range(2, 65):
        assert find_n0(2 * m, -m * m) == (m * (m + 1) + 1 if m % 2 else m * (m + 2))
    code, out, err = run(["n0", "--l", "130", "--b", "-4225"])
    assert (code, json.loads(out)["n0"], err) == (0, 4291, "")
    code, out, err = run(["n0", "--l", "10080", "--b", "-25401600"])
    assert (code, json.loads(out)["n0"], err) == (0, 25411680, "")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_n0_on_a_double_root_charges_no_horizon(fmt):
    # find_n0 charges the 2*horizon terms of its scan, which a double root
    # never runs: a horizon past the budget still answers there, while a
    # pair that scans is refused before its first term
    code, out, err = run(["n0", "--l", "4", "--b", "-4", "--horizon", "30000000", "--format", fmt])
    assert (code, err) == (0, "")
    assert [str(_field(out, fmt, key)) for key in ("n0", "horizon")] == ["8", "30000000"]
    code, out, err = run(["n0", "--l", "3", "--b", "9", "--horizon", "30000000", "--format", fmt])
    assert (code, out, err) == (2, "", "error: asked for 60000000 terms, past the budget of 50000000 nodes\n")


@pytest.mark.parametrize("spec, n, gorenstein", [("rec:1,1", 20, False), ("rec:1,1", 4, True)])
def test_classify_runs_the_recursion_once_per_verdict(spec, n, gorenstein):
    # a failing prefix gives the family's fail index, since both run the
    # recursion on the same first terms; only a Gorenstein prefix runs the
    # family's.  rec:1,1 fails at 5, and its threshold check is read off that
    # index: one run either way
    recursion = cli._index_recursion  # lhcone.gorenstein's, imported
    with mock.patch("lhcone.cli._index_recursion", wraps=recursion) as prefix, mock.patch(
        "lhcone.gorenstein._index_recursion", wraps=recursion
    ) as family:
        code, doc, err = run_json(["classify", "--seq", spec, "--n", str(n)])
    assert (code, err) == (0, "")
    assert (doc["gorenstein"], doc["fail_index"], doc["threshold_check"]["actual"]) == (gorenstein, 5, 5)
    assert (prefix.call_count, family.call_count) == ((0, 1) if gorenstein else (1, 0))


def test_classify_threshold_check_is_the_library_verdict():
    # classify reads the verdict off its fail index and the profile's t;
    # failure_threshold_check runs the recursion to the threshold itself
    for l in range(1, 13):
        for b in range(-12, 13):
            if b in (0, -1) or not validate_positivity(l, b):
                continue
            expected = failure_threshold_check(l, b)._asdict()
            for n in (3, 20):
                code, doc, err = run_json(["classify", "--seq", f"rec:{l},{b}", "--n", str(n)])
                assert (code, err, doc["threshold_check"]) == (0, "", expected), (l, b, n)


PERFBENCH = os.path.join(os.path.dirname(SRC), "perfbench")


def test_benchmark_surface_stays_public():
    # the benchmark calls these names and options; a clean-up that drops one
    # makes every run of the benchmark fail
    import lhcone

    called = set()
    for name in os.listdir(PERFBENCH):
        if name.endswith(".py"):
            with open(os.path.join(PERFBENCH, name), encoding="utf-8") as fh:
                called.update(re.findall(r"\blh(?:cone)?\.([A-Za-z]\w*)", fh.read()))
    called = {name for name in called if not os.path.exists(os.path.join(SRC, "lhcone", name + ".py"))}
    assert {"numerator_H", "h_star", "weight_series", "detect_product_form", "BudgetExceeded"} <= called
    assert called <= set(lhcone.__all__)
    # classify --horizon is deprecated but still in the benchmark's pools
    code, doc, err = run_json(["classify", "--seq", "rec:1,1", "--n", "8", "--horizon", "64"])
    assert code == 0, err
    assert doc["fail_index"] == 5
