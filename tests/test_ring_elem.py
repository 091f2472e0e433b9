"""RingElem: its public contract, and differential tests against ``elemref``.

``elemref.RefElem`` keeps the arithmetic of a rational numerator; the
seeded property test runs the same random elements through both and
asserts the same numerator terms, denominator factors and equality
verdicts.  The multiset merges of ``CycloDenominator`` are checked
against ``Counter``.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import elemref as ref
from curvedt import series
from curvedt.ring import CycloDenominator, LaurentPoly, NotDivisibleError, RingElem, ring_sum

ONE = LaurentPoly.one()


# -- contract ------------------------------------------------------------------


def test_num_is_the_rational_numerator():
    p = LaurentPoly({(0, 0): Fraction(1, 2), (2, 0): Fraction(-3, 4), (0, 2): 5})
    x = RingElem(p, CycloDenominator.of(1, 2))
    assert x.num.terms == p.terms
    assert (x * Fraction(2, 3)).num.terms == {(0, 0): Fraction(1, 3), (2, 0): Fraction(-1, 2),
                                              (0, 2): Fraction(10, 3)}
    assert (x * 4).num.terms == {(0, 0): 2, (2, 0): -3, (0, 2): 20}
    assert all(type(c) is int for c in (x * 4).num.terms.values())


def test_to_polynomial_keeps_fractions_exact():
    assert RingElem(LaurentPoly({(0, 0): Fraction(1, 2)})).to_polynomial().terms == {
        (0, 0): Fraction(1, 2)
    }
    # (1/3 - L/3) / (1 - L) = 1/3; (3 - 3L) / (2 (1 - L)) = 3/2
    third = RingElem(LaurentPoly({(0, 0): Fraction(1, 3), (2, 2): Fraction(-1, 3)}),
                     CycloDenominator.of(1))
    assert third.to_polynomial().terms == {(0, 0): Fraction(1, 3)}
    half = RingElem(LaurentPoly({(0, 0): 3, (2, 2): -3}), CycloDenominator.of(1)) * Fraction(1, 2)
    assert half.to_polynomial().terms == {(0, 0): Fraction(3, 2)}


@pytest.mark.parametrize("scale", [1, 2, Fraction(1, 6), Fraction(-5, 7)])
def test_non_divisible_raises_whatever_the_scale(scale):
    x = RingElem(LaurentPoly({(0, 0): Fraction(1, 2), (2, 2): Fraction(1, 3)}),
                 CycloDenominator.of(1)) * scale
    with pytest.raises(NotDivisibleError):
        x.to_polynomial()


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_times_zero_is_zero(zero):
    x = RingElem(LaurentPoly({(0, 0): Fraction(1, 2), (2, 0): 3}), CycloDenominator.of(2))
    for y in (x * zero, zero * x):
        assert y.is_zero() and y == RingElem.zero() and not y.num.terms


# -- CycloDenominator multisets against Counter --------------------------------

multisets = st.lists(st.integers(1, 5), max_size=6).map(lambda ks: CycloDenominator(tuple(ks)))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(multisets, multisets)
def test_lcm_and_diff_match_counter(a, b):
    ca, cb = Counter(a.factors), Counter(b.factors)
    assert a.lcm(b).factors == tuple(sorted((ca | cb).elements()))
    if cb - ca:
        with pytest.raises(ValueError, match="not a sub-multiset"):
            a.diff(b)
    else:
        assert a.diff(b) == tuple(sorted((ca - cb).elements()))
    assert (a * b).diff(b) == a.factors


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(multisets, multisets, st.integers(1, 4))
def test_trusted_results_are_what_the_constructor_builds(a, b, n):
    # lcm, * and adams skip the constructor's sort and check: their factors
    # must already be sorted and positive
    for x in (a.lcm(b), a * b, a.adams(n)):
        assert x == CycloDenominator(x.factors) and x.factors == tuple(sorted(x.factors))
    assert (a * b).factors == tuple(sorted((Counter(a.factors) + Counter(b.factors)).elements()))
    assert a.adams(n).factors == tuple(n * k for k in a.factors)


@pytest.mark.parametrize("factors", [(3, 0), (0,), (2, -1)])
def test_constructor_refuses_non_positive_factors(factors):
    with pytest.raises(ValueError, match="positive integers"):
        CycloDenominator(factors)


# -- differential: RingElem against the rational-numerator RefElem -------------


def rand_pair(rng, n_terms=3, max_ks=3):
    terms = {(rng.randint(-3, 3), rng.randint(-3, 3)): Fraction(rng.randint(-6, 6), rng.randint(1, 12))
             for _ in range(rng.randint(0, n_terms))}
    den = CycloDenominator(tuple(rng.randint(1, 3) for _ in range(rng.randint(0, max_ks))))
    return RingElem(LaurentPoly(terms), den), ref.RefElem(LaurentPoly(terms), den)


def rand_scalar(rng):
    return rng.choice([
        0, Fraction(0), rng.randint(-5, 5), Fraction(1, rng.randint(1, 12)),
        Fraction(rng.randint(-7, 7), rng.randint(1, 12)),
    ])


def typed(terms):
    return {m: (type(c), c) for m, c in terms.items()}


def assert_same(got, want):
    assert isinstance(got, RingElem) and isinstance(want, ref.RefElem)
    assert typed(got.num.terms) == typed(want.num.terms)
    assert got.den.factors == want.den.factors
    assert got.is_zero() == want.is_zero()


def test_arithmetic_matches_oracle():
    rng = random.Random(1213)
    for _ in range(300):
        (a, ra), (b, rb), (c, rc) = (rand_pair(rng) for _ in range(3))
        s, n = rand_scalar(rng), rng.randint(1, 3)
        assert_same(a, ra)
        assert_same(a + b, ra + rb)
        assert_same(a - b, ra - rb)
        assert_same(a * b, ra * rb)
        assert_same(a * s, ra * s)
        assert_same(s * a, s * ra)
        assert_same(a.adams(n), ra.adams(n))
        assert_same(-a, -ra)
        assert_same(ring_sum([a, b * s, c]), ref.ring_sum([ra, rb * s, rc]))
        assert_same((a * s) * (b * Fraction(1, n)) + c, (ra * s) * (rb * Fraction(1, n)) + rc)
        assert (a == b) == (ra == rb)
        assert (a * s == b * s) == (ra * s == rb * s)
        # the same value over a wider denominator
        k = rng.randint(1, 3)
        wide = (a * s) * RingElem(ONE - LaurentPoly({(2 * k, 2 * k): 1}), CycloDenominator.of(k))
        rwide = (ra * s) * ref.RefElem(ONE - LaurentPoly({(2 * k, 2 * k): 1}), CycloDenominator.of(k))
        assert_same(wide, rwide)
        assert (wide == a * s) and (rwide == ra * s)
        assert (wide == b) == (rwide == rb)


def test_to_polynomial_matches_oracle():
    rng = random.Random(1214)
    for _ in range(200):
        (a, ra), (b, rb) = rand_pair(rng, n_terms=5), rand_pair(rng)
        s = rand_scalar(rng)
        # a's numerator times its own denominator, times b's scaled numerator:
        # divisible by a's denominator
        expanded = RingElem(a.den.expand())
        x = RingElem(a.num, CycloDenominator()) * expanded * (b * s).num
        x = RingElem(x.num, a.den) * s
        rx = ref.RefElem(ra.num * a.den.expand() * (rb * s).num, a.den) * s
        assert_same(x, rx)
        assert typed(x.to_polynomial().terms) == typed(rx.to_polynomial().terms)
        if not a.den.factors or a.is_zero():
            continue
        try:
            want = ra.to_polynomial()
        except NotDivisibleError:
            with pytest.raises(NotDivisibleError):
                a.to_polynomial()
        else:
            assert typed(a.to_polynomial().terms) == typed(want.terms)


def test_pleth_matches_oracle():
    rng = random.Random(1215)
    for _ in range(10):
        rmax = rng.randint(2, 6)
        pairs = [rand_pair(rng, n_terms=2, max_ks=1 if rmax > 4 else 3) for _ in range(rmax)]
        f = (RingElem.zero(),) + tuple(x for x, _ in pairs)
        g = (RingElem.one(),) + tuple(x for x, _ in pairs)
        got_exp, got_log = series.pleth_exp(f), series.pleth_log(g)
        with ref.ref_series() as refseries:
            rf = (ref.RefElem.zero(),) + tuple(rx for _, rx in pairs)
            rg = (ref.RefElem.one(),) + tuple(rx for _, rx in pairs)
            want_exp, want_log = refseries.pleth_exp(rf), refseries.pleth_log(rg)
        assert series.RingElem is RingElem
        for got, want in zip(got_exp + got_log, want_exp + want_log):
            assert_same(got, want)
