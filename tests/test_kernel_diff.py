"""Differential tests: the polynomial kernel against the dict reference.

LaurentPoly and UniPoly share one arithmetic; every operation of each is
compared with ``polyref`` on random sparse inputs.  Hypothesis runs
derandomized, so the examples are the same on every run.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import polyref as ref
from curvedt.ring import (
    CycloDenominator,
    LaurentPoly,
    NotDivisibleError,
    RingElem,
    UniPoly,
    exact_divide_cyclo,
    specialize_elem,
    specialize_y,
)

SETTINGS = settings(derandomize=True, max_examples=50, deadline=None, database=None)

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
scalars = st.one_of(st.integers(-3, 3), coeffs)
pair_terms = st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), coeffs, max_size=8)
int_terms = st.dictionaries(st.integers(-8, 8), coeffs, max_size=8)
KINDS = {"laurent": (LaurentPoly, pair_terms, (0, 0)), "uni": (UniPoly, int_terms, 0)}


def clean(terms):
    return {k: Fraction(c) for k, c in terms.items() if c}


def pairs_of(kind):
    cls, terms, unit = KINDS[kind]
    return st.tuples(terms, terms).map(lambda ab: (cls, unit, clean(ab[0]), clean(ab[1])))


@SETTINGS
@given(st.sampled_from(sorted(KINDS)).flatmap(pairs_of), scalars, st.integers(0, 4))
def test_ring_operations_match_reference(case, c, n):
    cls, unit, a, b = case
    pa, pb = cls(a), cls(b)
    assert pa.terms == a
    assert (pa + pb).terms == ref.add(a, b)
    assert (pa - pb).terms == ref.sub(a, b)
    assert (-pa).terms == ref.neg(a)
    assert (pa * pb).terms == ref.mul(a, b)
    assert (pa * c).terms == ref.scale(a, c) == (c * pa).terms
    assert (pa ** n).terms == ref.power(a, n, unit)
    assert pa.records() == ref.records(a)
    assert (pa == pb) == (a == b)


@SETTINGS
@given(pair_terms.map(clean), st.integers(1, 4))
def test_laurent_maps_match_reference(a, n):
    p = LaurentPoly(a)
    assert p.adams(n).terms == ref.adams(a, n)
    assert p.dual().terms == ref.dual(a)
    assert specialize_y(p).terms == ref.specialize(a)


@SETTINGS
@given(int_terms.map(lambda t: clean({2 * e: c for e, c in t.items()})))
def test_at_neg_y_matches_reference(a):
    assert UniPoly(a).at_neg_y().terms == ref.at_neg_y(a)


@SETTINGS
@given(pair_terms.map(clean), st.integers(1, 3))
def test_exact_division_of_products(q, k):
    p = ref.mul(q, ref.one_minus_lefschetz(k))
    assert exact_divide_cyclo(LaurentPoly(p), k).terms == q == ref.divide_cyclo(p, k)


@SETTINGS
@given(pair_terms.map(clean), st.integers(1, 3))
def test_exact_division_matches_reference(a, k):
    want = ref.divide_cyclo(a, k)
    if want is None:
        with pytest.raises(NotDivisibleError):
            exact_divide_cyclo(LaurentPoly(a), k)
    else:
        assert exact_divide_cyclo(LaurentPoly(a), k).terms == want


@SETTINGS
@given(pair_terms.map(clean), st.lists(st.integers(1, 3), max_size=3))
def test_denominators_expand_and_specialize(a, ks):
    den = {(0, 0): Fraction(1)}
    for k in ks:
        den = ref.mul(den, ref.one_minus_lefschetz(k))
    assert CycloDenominator(tuple(ks)).expand().terms == den
    num_y, den_y = specialize_elem(RingElem(LaurentPoly(a), CycloDenominator(tuple(ks))))
    assert (num_y.terms, den_y.terms) == (ref.specialize(a), ref.specialize(den))


def test_classes_do_not_mix():
    assert LaurentPoly.zero() != UniPoly.zero()
    assert not (LaurentPoly.one() == UniPoly.one())
    for a, b in ((LaurentPoly.one(), UniPoly.one()), (UniPoly.one(), LaurentPoly.one())):
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(TypeError):
                op(a, b)
    assert not issubclass(LaurentPoly, UniPoly) and not issubclass(UniPoly, LaurentPoly)


def test_negative_power_is_refused():
    for cls in (LaurentPoly, UniPoly):
        with pytest.raises(ValueError):
            cls.one() ** -1
