"""Polynomial storage: nonzero ints over one positive int scale, read through ``terms``.

A LaurentPoly or UniPoly stores int coefficients over one int scale, and
no operation reduces that scale, so two equal polynomials may store
different ints.  These properties pin the contract of that storage on
operands built unreduced on purpose, ``(p * m) * Fraction(1, m)``:

* every operation's ``terms`` (the canonical view: an int where
  integral, else a Fraction) equals the ``polyref`` dict reference;
* the view round-trips through the public constructor;
* equality reads the view, not the stored ints;
* no zero int is stored;
* ``RingElem.to_polynomial`` hands out a fully reduced scale, 1 for an
  integral quotient.

Hypothesis runs derandomized, so the examples are the same on every run.
"""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings, strategies as st

import polyref as ref
from curvedt.ring import (
    CycloDenominator,
    LaurentPoly,
    RingElem,
    UniPoly,
    exact_divide_cyclo,
    specialize_y,
)

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None)

big = st.integers(-(2**200), 2**200).filter(bool)
coeffs = st.one_of(
    big,
    st.integers(-9, 9).filter(bool),
    st.builds(Fraction, big, st.integers(1, 2**40)),  # may be integral: Fraction(6, 1)
    st.fractions(-5, 5, max_denominator=6).filter(bool),
)
scalars = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-(2**70), 2**70),
    st.builds(Fraction, big, st.integers(1, 2**40)),
)
KEYS = {
    LaurentPoly: st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    UniPoly: st.integers(-8, 8),
}


def terms_of(cls, values=coeffs, min_size=0):
    return st.dictionaries(KEYS[cls], values, min_size=min_size, max_size=8).map(
        lambda t: {k: Fraction(c) for k, c in t.items()}
    )


def cases(cls):
    return st.tuples(st.just(cls), terms_of(cls), terms_of(cls), st.integers(2, 2**40))


any_case = st.sampled_from([LaurentPoly, UniPoly]).flatmap(cases)


def stored(p):
    """p's canonical terms, after checking its storage and its view."""
    assert type(p._scale) is int and p._scale > 0
    assert all(type(c) is int and c for c in p._ints.values()), p._ints
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    assert type(p)(p.terms) == p
    return p.terms


def unreduced(p, m):
    """p stored over a scale m times larger: the same value, other ints."""
    q = p * m * Fraction(1, m)
    assert q == p and (not p or q._ints != p._ints)
    return q


@SETTINGS
@given(any_case, scalars, st.integers(0, 3))
def test_operations_on_unreduced_storage_match_reference(case, c, n):
    cls, a, b, m = case
    x, y = unreduced(cls(a), m), unreduced(cls(b), m + 1)
    checks = [
        (x, a),
        (x + y, ref.add(a, b)),
        (x - y, ref.sub(a, b)),
        (-x, ref.neg(a)),
        (x * y, ref.mul(a, b)),
        (x * c, ref.scale(a, c)),
        (c * y, ref.scale(b, c)),
        (x ** n, ref.power(a, n, cls._UNIT)),
    ]
    if cls is LaurentPoly:
        k = n + 1
        factor = ref.one_minus_lefschetz(k)
        product = x * LaurentPoly(factor)
        checks += [
            (x.adams(k), ref.adams(a, k)),
            (x.dual(), ref.dual(a)),
            (specialize_y(x), ref.specialize(a)),
            (product, ref.mul(a, factor)),
            (exact_divide_cyclo(product, k), a),
        ]
    for p, want in checks:
        assert stored(p) == want


@SETTINGS
@given(any_case)
def test_equality_reads_the_canonical_view(case):
    cls, a, b, m = case
    values = [cls(a), cls(b), unreduced(cls(a), m), unreduced(cls(b), m), cls(a) * m,
              cls(a) * Fraction(1, m), cls.zero(), unreduced(cls.one(), m)]
    for p in values:
        for q in values:
            assert (p == q) == (p.terms == q.terms)


def test_half_times_two_is_one_though_stored_unreduced():
    for cls in (LaurentPoly, UniPoly):
        two_halves = cls({cls._UNIT: Fraction(1, 2)}) * 2
        assert two_halves._scale == 2
        assert two_halves == cls.one() and cls.one() == two_halves
        assert two_halves.terms == {cls._UNIT: 1}
    assert RingElem.__slots__ == ("num", "den")


@SETTINGS
@given(terms_of(LaurentPoly), terms_of(LaurentPoly, big, 1), st.integers(2, 2**40),
       st.lists(st.integers(1, 3), max_size=3))
def test_to_polynomial_reduces_the_scale_once(a, integral, m, ks):
    den = CycloDenominator(tuple(ks))
    for want in (a, integral):
        num = unreduced(LaurentPoly(ref.times_cyclo(want, ks)), m)
        q = RingElem(num, den).to_polynomial()
        assert stored(q) == want
        assert q._scale == lcm(*(c.denominator for c in want.values()))
    assert q._scale == 1
