"""Contracts of the record types.

``CycloDenominator`` is a slotted class; ``DTResult``, ``ReportTable``,
verify's ``CheckResult`` and the stratum records (``StratumType``,
``FramedQuiver``, ``StratumRecord``, ``SmallnessReport``) are named
tuples.  None of them is a dataclass, so no command imports
``dataclasses``.  Each stays immutable and equal field by field, and a
denominator gains no tuple behaviour.  ``StratumType`` keeps a public
constructor that sorts and validates its parts, while
``enumerate_strata`` builds its already-canonical types through
``_make``.
"""

import copy
import pickle
import re

import pytest

from curvedt.cli import ReportTable
from curvedt.invariants import ih_poincare
from curvedt.ring import CycloDenominator, DomainError, LaurentPoly, RingElem
from curvedt.strata import (
    StratumType, build_fiber_quiver, certify_virtual_smallness, enumerate_strata,
)
from curvedt.verify import CheckResult

TYPE = StratumType((((2, 6), 1), ((1, 3), 2)))
REPORT = certify_virtual_smallness(2, 4, 12)


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
    TYPE,
    build_fiber_quiver(2, TYPE),
    REPORT.records[1],
    REPORT,
], ids=["DTResult", "ReportTable", "CheckResult", "StratumType", "FramedQuiver", "StratumRecord",
        "SmallnessReport"])
def test_records_are_read_only_and_equal_field_by_field(record):
    cls, fields = type(record), record._fields
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    same = cls(**{name: getattr(record, name) for name in fields})
    assert same == record and not same != record
    for name in fields:
        changed = record._replace(**{name: "changed"})
        assert changed != record


def test_check_result_reads_ok_off_its_status():
    assert [CheckResult("c", status, "").ok for status in ("PASS", "WARN", "FAIL")] == [
        True, True, False]
    assert CheckResult("c", "FAIL", "x")._asdict() == {"name": "c", "status": "FAIL", "detail": "x"}


def test_stratum_type_and_report_survive_pickle_and_copy():
    for record in (TYPE, REPORT):
        for same in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
            assert same == record and type(same) is type(record)
    assert pickle.loads(pickle.dumps(REPORT)).passes is REPORT.passes is True


def test_stratum_type_constructor_sorts_and_validates():
    assert StratumType([((2, 1), 1), ((1, 0), 2)]).parts == (((1, 0), 2), ((2, 1), 1))
    assert StratumType(parts=(((1, 0), 2),)) == StratumType([((1, 0), 2)])
    for bad, text in ((((0, 1), 1), "((0,1),1)"), (((1, 1), 0), "((1,1),0)")):
        with pytest.raises(DomainError, match=f"^invalid part {re.escape(text)}$"):
            StratumType((bad,))


def test_enumerated_types_are_what_the_constructor_builds():
    for r in range(1, 9):
        for d in range(-2 * r, 3 * r + 1):
            for t in enumerate_strata(r, d):
                assert type(t) is StratumType and t == StratumType(t.parts)

