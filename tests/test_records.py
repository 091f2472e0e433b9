"""Contracts of the record types a betti, hdt or detfactor run builds.

``CycloDenominator`` is a slotted class; ``DTResult``, ``ReportTable``
and verify's ``CheckResult`` are named tuples.  None of them is a
dataclass, so betti, hdt and detfactor never import ``dataclasses``
(only the stratum records still are).  Each stays immutable and equal
field by field, and a denominator gains no tuple behaviour.
"""

import copy
import pickle

import pytest

from curvedt.cli import ReportTable
from curvedt.invariants import ih_poincare
from curvedt.ring import CycloDenominator, LaurentPoly, RingElem
from curvedt.verify import CheckResult


def test_denominator_constructor_sorts_and_validates():
    assert CycloDenominator((3, 1, 2)).factors == (1, 2, 3)
    assert CycloDenominator(factors=[2, 1]).factors == (1, 2)
    assert CycloDenominator().factors == ()
    for bad in ((0,), (2, -1)):
        with pytest.raises(ValueError, match="^denominator factors must be positive integers$"):
            CycloDenominator(bad)
    assert CycloDenominator._raw((1, 2)) == CycloDenominator.of(2, 1)


def test_denominator_is_immutable():
    den = CycloDenominator.of(1, 2)
    with pytest.raises(AttributeError):
        den.factors = (1,)
    with pytest.raises(AttributeError):
        del den.factors
    with pytest.raises(AttributeError):
        den.extra = 1
    assert den.factors == (1, 2)


def test_denominator_equality_and_hash_follow_sorted_factors():
    a, b = CycloDenominator.of(2, 1, 1), CycloDenominator((1, 1, 2))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != CycloDenominator.of(1, 2) and a != (1, 1, 2)
    assert repr(a) == "CycloDenominator(factors=(1, 1, 2))"


def test_denominator_has_no_tuple_behaviour():
    den = CycloDenominator.of(1, 2)
    for op in (lambda: den + den, lambda: len(den), lambda: iter(den), lambda: den[0]):
        with pytest.raises(TypeError):
            op()


def test_denominator_survives_pickle_and_copy():
    den = CycloDenominator.of(1, 3)
    x = RingElem(LaurentPoly.one(), den)
    assert pickle.loads(pickle.dumps(den)) == den
    assert copy.deepcopy(den) == den and copy.copy(den) == den
    assert pickle.loads(pickle.dumps(x)) == x


@pytest.mark.parametrize("record", [
    ih_poincare(2, 2, 1),
    ReportTable(("k", "b_k"), (("0", "1"), ("1", "4"))),
    CheckResult("torsion", "PASS", "g in {2,3,4}, d <= 6 verified"),
], ids=["DTResult", "ReportTable", "CheckResult"])
def test_records_are_read_only_and_equal_field_by_field(record):
    cls, fields = type(record), record._fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    same = cls(**{name: getattr(record, name) for name in fields})
    assert same == record and not same != record
    for name in fields:
        changed = record._replace(**{name: "changed"})
        assert changed != record


def test_check_result_reads_ok_off_its_status():
    assert [CheckResult("c", status, "").ok for status in ("PASS", "WARN", "FAIL")] == [
        True, True, False]
    assert CheckResult("c", "FAIL", "x")._asdict() == {"name": "c", "status": "FAIL", "detail": "x"}
