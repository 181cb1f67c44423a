"""The seven value types are namedtuples, and importing lhcone loads neither
`dataclasses` nor the modules it brings in.

A value keeps its fields in order, refuses assignment, and is equal and
hashed by its fields, as the frozen dataclasses it replaces were: their
hash was hash() of the tuple of fields, which is a tuple's hash.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lhcone
from lhcone import (
    CrossCheckReport,
    GcdProfile,
    GorensteinResult,
    HStarVector,
    RatioTable,
    SequenceSpec,
    ThresholdVerdict,
    cross_check_gorenstein,
    failure_threshold_check,
    gcd_profile,
    h_star,
    lecture_hall_gorenstein,
    parse_sequence_spec,
    ratio_table,
)

FIELDS = {
    GorensteinResult: ("point", "fails_at", "witness"),
    SequenceSpec: ("kind", "params"),
    HStarVector: ("coeffs", "denominator_exponent", "power"),
    CrossCheckReport: ("recursion_gorenstein", "numerator_palindromic", "hstar_palindromic"),
    GcdProfile: ("r", "t", "sigma", "gamma", "beta"),
    RatioTable: ("rows",),
    ThresholdVerdict: ("applicable", "threshold", "actual"),
}

VALUES = [
    lecture_hall_gorenstein((1, 3, 5)),
    lecture_hall_gorenstein((1, 1, 2, 3, 5)),
    parse_sequence_spec("kl:2,5"),
    parse_sequence_spec("u:3,2;4"),
    h_star((1, 3, 5)),
    cross_check_gorenstein((1, 3, 5)),
    gcd_profile(90, -756),
    ratio_table(6, 36, 4),
    failure_threshold_check(3, 9),
    failure_threshold_check(2, 3),
]


def test_every_value_type_is_covered():
    assert {type(v) for v in VALUES} == set(FIELDS)


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_fields_in_order(value):
    fields = FIELDS[type(value)]
    assert type(value)._fields == fields
    assert tuple(value) == tuple(getattr(value, f) for f in fields)
    assert value._asdict() == {f: getattr(value, f) for f in fields}
    assert list(value._asdict()) == list(fields)
    assert repr(value).startswith(f"{type(value).__name__}({fields[0]}=")


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_assignment_raises(value):
    for field in FIELDS[type(value)]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = None  # no instance dict


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_equality_and_hash_by_fields(value):
    copy = type(value)(*value)
    assert copy == value and not copy != value
    assert hash(copy) == hash(value) == hash(tuple(getattr(value, f) for f in value._fields))
    for field in value._fields:
        assert value._replace(**{field: object()}) != value
    # a tuple now: equal to the plain tuple of its fields
    assert value == tuple(value)


def test_properties_and_methods_are_kept():
    assert lecture_hall_gorenstein((1, 3, 5)).gorenstein
    assert not lecture_hall_gorenstein((1, 1, 2, 3, 5)).gorenstein
    assert h_star((1, 3, 5)).symmetric and h_star((1, 3, 5)).unimodal
    assert cross_check_gorenstein((1, 3, 5)).agree
    assert ratio_table(6, 36, 4).u_values == [1, 1, 2, 3]
    assert failure_threshold_check(2, 3).confirmed and not failure_threshold_check(3, 9).confirmed
    spec = SequenceSpec("ell", (3,))
    assert spec.needs_length() and spec.multipliers(3) == [4, 3]
    assert spec.realize(3) == [1, 3, 8]


def test_import_loads_no_dataclasses_or_typing():
    # a fresh interpreter without site, so only lhcone's own imports count
    src = Path(lhcone.__file__).resolve().parents[1]
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
    code = f"import sys, lhcone, lhcone.cli; print(sorted(m for m in {heavy!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"
