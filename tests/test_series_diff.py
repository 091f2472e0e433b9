"""Differential tests: plethystic Exp and Log against the power-sum oracle.

``curvedt.series`` computes Exp and Log with the Newton identity;
``seriesref`` keeps the power-sum implementation (ordinary exp/log plus
Adams and Moebius sums).  Both must agree coefficient by coefficient,
under ``RingElem`` equality, on random series with rational
coefficients and cyclotomic denominators, on series whose only nonzero
coefficient makes every term an Adams image, and on the slope series
of the pipeline.  Hypothesis runs derandomized.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import seriesref as ref
from curvedt.invariants import slope_series
from curvedt.ring import CycloDenominator, LaurentPoly, RingElem
from curvedt.series import pleth_exp, pleth_log

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None, database=None)

coeffs = st.one_of(st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=4))
polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), coeffs, max_size=3
).map(LaurentPoly)
dens = st.lists(st.integers(1, 3), max_size=2).map(lambda ks: CycloDenominator(tuple(ks)))
elems = st.builds(RingElem, polys, dens)


def assert_same(got, want):
    assert len(got) == len(want)
    for r in range(len(got)):
        assert got[r] == want[r], f"coefficient of t^{r} differs"


@SETTINGS
@given(st.lists(elems, min_size=1, max_size=5))
def test_exp_matches_oracle(tail):
    f = (RingElem.zero(), *tail)
    assert_same(pleth_exp(f), ref.pleth_exp(f))


@SETTINGS
@given(st.lists(elems, min_size=1, max_size=5))
def test_log_matches_oracle(tail):
    f = (RingElem.one(), *tail)
    assert_same(pleth_log(f), ref.pleth_log(f))


@SETTINGS
@given(elems.filter(lambda x: not x.is_zero()), st.integers(1, 3), st.integers(1, 3))
def test_single_coefficient_matches_oracle(c, k, m):
    # only t^k is nonzero and k divides rmax = k m: every later term is an
    # Adams image or a power of the one coefficient
    coeffs = [RingElem.zero()] * (k * m + 1)
    coeffs[k] = c
    f = tuple(coeffs)
    assert_same(pleth_exp(f), ref.pleth_exp(f))
    coeffs[0] = RingElem.one()
    g = tuple(coeffs)
    got = pleth_log(g)
    assert_same(got, ref.pleth_log(g))
    assert got[k] is c  # no correction terms: returned as it is


@pytest.mark.parametrize(
    "g, tau, rmax", [(2, Fraction(0), 4), (3, Fraction(1, 2), 4), (2, Fraction(1, 3), 6)]
)
def test_slope_series_log_matches_oracle(g, tau, rmax):
    # the pipeline's Log runs in s = u + v, the oracle's on the same series in u, v
    f = slope_series(g, tau, rmax)
    assert_same(in_uv(pleth_log(f)), ref.pleth_log(in_uv(f)))


def in_uv(series):
    """A series of the pipeline, whose numerators are in s = u + v, with numerators in u, v."""
    return tuple(RingElem(x.num.to_laurent(), x.den) for x in series)
