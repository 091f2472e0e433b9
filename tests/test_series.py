"""Series layer: truncated products, log/exp, Adams maps, plethystics.

The Exp(L^(1/2) t) = 1 + L^(1/2) t oracle pins the sign convention: the
Adams images of L^(1/2) alternate, so the plethystic exponential of a
single half-Lefschetz term telescopes to a two-term polynomial.  The
ordinary log/exp, Adams-series and Moebius tests exercise the power-sum
reference in ``seriesref``, which ``test_series_diff`` compares with
``pleth_exp``/``pleth_log``.
"""

from fractions import Fraction
import random

import pytest

from curvedt.ring import (
    CycloDenominator,
    LaurentPoly,
    RingElem,
    half_lefschetz,
)
from curvedt.series import pleth_exp, pleth_log, series_mul
from seriesref import (
    adams_series,
    mobius,
    series_add,
    series_exp,
    series_log,
    series_scale,
    unit_series,
    zero_series,
)


def elem(p):
    return RingElem(p)


def rand_elem(rng):
    terms = {}
    for _ in range(3):
        terms[(rng.randint(-2, 2), rng.randint(-2, 2))] = Fraction(
            rng.randint(-4, 4), rng.randint(1, 3)
        )
    den = CycloDenominator(tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 1))))
    return RingElem(LaurentPoly(terms), den)


def rand_series(rng, rmax, const):
    return (const,) + tuple(rand_elem(rng) for _ in range(rmax))


def assert_series_eq(f, g):
    assert len(f) == len(g)
    for r in range(len(f)):
        assert f[r] == g[r], f"coefficient of t^{r} differs"


def test_mobius_oracle():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_series_mul_small():
    # (1 + at)(1 + bt) = 1 + (a+b)t + ab t^2
    a, b = elem(LaurentPoly({(2, 0): 1})), elem(LaurentPoly({(0, 2): 1}))
    f = (RingElem.one(), a, RingElem.zero())
    g = (RingElem.one(), b, RingElem.zero())
    h = series_mul(f, g)
    assert h[0] == RingElem.one()
    assert h[1] == a + b
    assert h[2] == a * b


def test_series_order_mismatch():
    with pytest.raises(ValueError):
        series_mul(unit_series(2), unit_series(3))


@pytest.mark.parametrize(
    "const", [None, RingElem.zero(), RingElem.one(), RingElem(LaurentPoly({(0, 0): 2}))]
)
def test_pleth_exp_and_log_check_the_constant_term(const):
    f = () if const is None else (const, RingElem.one())
    if const is None or not const.is_zero():
        with pytest.raises(ValueError, match="pleth_exp needs constant term 0"):
            pleth_exp(f)
    if const is None or not const == RingElem.one():
        with pytest.raises(ValueError, match="pleth_log needs constant term 1"):
            pleth_log(f)


def test_log_exp_inverse_random():
    rng = random.Random(41)
    for _ in range(8):
        rmax = rng.randint(1, 5)
        f = rand_series(rng, rmax, RingElem.zero())
        assert_series_eq(series_log(series_exp(f)), f)
        g = rand_series(rng, rmax, RingElem.one())
        assert_series_eq(series_exp(series_log(g)), g)


def test_log_needs_constant_one():
    with pytest.raises(ValueError):
        series_log(zero_series(3))
    with pytest.raises(ValueError):
        series_exp(unit_series(3))


def test_adams_series_reindexes():
    a, b = elem(LaurentPoly({(2, 0): 1})), elem(LaurentPoly({(0, 2): 1}))
    f = (RingElem.one(), a, b, RingElem.zero(), RingElem.zero())
    g = adams_series(2, f)
    assert len(g) == len(f)
    assert g[0] == RingElem.one()
    assert g[1].is_zero()
    assert g[2] == a.adams(2)
    assert g[4] == b.adams(2)
    assert adams_series(1, f) == f


def test_adams_series_is_multiplicative():
    rng = random.Random(43)
    for _ in range(6):
        rmax = rng.randint(1, 4)
        f = rand_series(rng, rmax, rand_elem(rng))
        g = rand_series(rng, rmax, rand_elem(rng))
        n = rng.randint(1, 3)
        assert_series_eq(
            adams_series(n, series_mul(f, g)),
            series_mul(adams_series(n, f), adams_series(n, g)),
        )


def test_pleth_exp_of_plain_t():
    # psi_n(1) = 1, so Exp(t) = 1/(1-t): all coefficients 1
    f = zero_series(5)
    f = (RingElem.zero(), RingElem.one()) + (RingElem.zero(),) * 4
    e = pleth_exp(f)
    for r in range(6):
        assert e[r] == RingElem.one()


def test_pleth_exp_of_half_lefschetz_t():
    # Exp(L^(1/2) t) = 1 + L^(1/2) t exactly, by the alternating Adams signs
    coeffs = [RingElem.zero()] * 6
    coeffs[1] = elem(half_lefschetz(1))
    e = pleth_exp(tuple(coeffs))
    assert e[0] == RingElem.one()
    assert e[1] == elem(half_lefschetz(1))
    for r in range(2, 6):
        assert e[r].is_zero(), f"t^{r} should vanish"


def test_pleth_round_trips_random():
    rng = random.Random(47)
    for _ in range(8):
        rmax = rng.randint(1, 5)
        f = rand_series(rng, rmax, RingElem.zero())
        assert_series_eq(pleth_log(pleth_exp(f)), f)
        g = rand_series(rng, rmax, RingElem.one())
        assert_series_eq(pleth_exp(pleth_log(g)), g)


def test_pleth_exp_is_additive_to_multiplicative():
    rng = random.Random(53)
    for _ in range(4):
        rmax = rng.randint(1, 4)
        f = rand_series(rng, rmax, RingElem.zero())
        g = rand_series(rng, rmax, RingElem.zero())
        assert_series_eq(
            pleth_exp(series_add(f, g)), series_mul(pleth_exp(f), pleth_exp(g))
        )


def test_pleth_log_matches_inversion_formulas():
    # Log(1 + sum a_i t^i) = sum b_i t^i with
    #   b1 = a1
    #   b2 = a2 - a1^2/2 - psi2(a1)/2
    #   b3 = a3 - a1 a2 + a1^3/3 - psi3(a1)/3
    #   b4 = a4 - a1 a3 + a1^2 a2 - a2^2/2 - psi2(a2)/2 - a1^4/4 + psi2(a1)^2/4
    rng = random.Random(59)
    for _ in range(4):
        a1, a2, a3, a4 = (rand_elem(rng) for _ in range(4))
        f = (RingElem.one(), a1, a2, a3, a4)
        b = pleth_log(f)
        half = Fraction(1, 2)
        third = Fraction(1, 3)
        quarter = Fraction(1, 4)
        assert b[1] == a1
        assert b[2] == a2 - a1 * a1 * half - a1.adams(2) * half
        assert b[3] == a3 - a1 * a2 + a1 * a1 * a1 * third - a1.adams(3) * third
        assert b[4] == (
            a4
            - a1 * a3
            + a1 * a1 * a2
            - a2 * a2 * half
            - a2.adams(2) * half
            - a1 * a1 * a1 * a1 * quarter
            + a1.adams(2) * a1.adams(2) * quarter
        )


def test_series_scale():
    f = unit_series(2)
    g = series_scale(f, Fraction(3, 2))
    assert g[0] == RingElem(LaurentPoly({(0, 0): Fraction(3, 2)}))
    assert g[1].is_zero()
