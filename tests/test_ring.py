"""Ring layer: doubled-exponent Laurent polynomials and cyclotomic fractions.

Expected values in here were derived by hand before the implementation
and are frozen: the division examples, the Adams sign on L^(1/2), and
the specialization images.
"""

from fractions import Fraction
import json
import random
import time
import tracemalloc

import pytest

from curvedt import cli
from curvedt.ring import (
    CycloDenominator,
    DomainError,
    LaurentPoly,
    NotDivisibleError,
    RingElem,
    UniPoly,
    exact_divide_cyclo,
    half_lefschetz,
    lefschetz,
    ring_sum,
    specialize_elem,
    specialize_y,
)

ONE = LaurentPoly.one()
U = LaurentPoly({(2, 0): 1})
V = LaurentPoly({(0, 2): 1})
L = lefschetz(1)


def rand_poly(rng, nterms=4, span=3):
    terms = {}
    for _ in range(nterms):
        mon = (rng.randint(-span, span), rng.randint(-span, span))
        terms[mon] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return LaurentPoly(terms)


def rand_elem(rng):
    den = CycloDenominator(tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 2))))
    return RingElem(rand_poly(rng), den)


# ---------------------------------------------------------------- polynomials


def test_construction_drops_zeros_and_coerces():
    p = LaurentPoly({(0, 0): 0, (2, 0): 1, (0, 2): Fraction(1, 2)})
    assert (0, 0) not in p.terms
    assert p.terms[(2, 0)] == Fraction(1)
    assert isinstance(p.terms[(0, 2)], Fraction)


@pytest.mark.parametrize("make", [
    lambda: LaurentPoly({(1.5, 0): 1}),  # once stored as the key (1, 0)
    lambda: LaurentPoly({(0, 0): 0.1}),  # once stored as 3602879701896397/2^55
    lambda: LaurentPoly({(0, 0): "1/3"}),
    lambda: LaurentPoly({(0, 0): 1.0}),
    lambda: LaurentPoly({(True, 0): 1}),
    lambda: LaurentPoly({(0, 0, 0): 1}),
    lambda: LaurentPoly({0: 1}),
    lambda: UniPoly({1.9: 2}),
    lambda: UniPoly({(0, 0): 1}),
    lambda: UniPoly({2: 0.5}),
    lambda: LaurentPoly({(2, 0): Fraction(1, 2) + 0.0}),
], ids=["float-key", "float-coeff", "str-coeff", "integral-float-coeff", "bool-key",
        "long-key", "int-key", "uni-float-key", "uni-pair-key", "uni-float-coeff",
        "monomial-float-coeff"])
def test_construction_takes_int_keys_and_exact_coefficients_only(make):
    with pytest.raises(DomainError, match="is not a pair of ints|is not an int|"
                                          "is neither an int nor a Fraction"):
        make()


def test_zero_is_empty():
    assert LaurentPoly.zero().is_zero()
    assert (U - U).is_zero()
    assert not (U + V).is_zero()


def test_add_mul_small_oracle():
    # (1 + u)(1 - u) = 1 - u^2
    assert (ONE + U) * (ONE - U) == ONE - LaurentPoly({(4, 0): 1})
    # u * v = L
    assert U * V == L


def test_pow():
    assert (ONE + U) ** 3 == ONE + 3 * U + 3 * LaurentPoly({(4, 0): 1}) + LaurentPoly({(6, 0): 1})
    assert (U + V) ** 0 == ONE


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_half_lefschetz_sign_convention():
    # L^(1/2) = -(uv)^(1/2); integral powers have positive sign
    assert half_lefschetz(1) == LaurentPoly({(1, 1): -1})
    assert half_lefschetz(2) == U * V
    assert half_lefschetz(0) == ONE
    assert half_lefschetz(-1) == LaurentPoly({(-1, -1): -1})
    assert half_lefschetz(-2) == LaurentPoly({(-2, -2): 1})


def test_half_lefschetz_is_multiplicative():
    rng = random.Random(11)
    for _ in range(20):
        a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        assert half_lefschetz(a) * half_lefschetz(b) == half_lefschetz(a + b)


def test_adams_on_half_lefschetz():
    # psi_n(L^(1/2)) = (-1)^(n-1) L^(n/2) falls out of exponent scaling
    assert half_lefschetz(1).adams(2) == -half_lefschetz(2)
    assert half_lefschetz(1).adams(3) == half_lefschetz(3)
    assert half_lefschetz(1).adams(4) == -half_lefschetz(4)


def test_adams_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        n = rng.randint(1, 4)
        assert (a * b).adams(n) == a.adams(n) * b.adams(n)
        assert (a + b).adams(n) == a.adams(n) + b.adams(n)
    # composition psi_m psi_n = psi_mn
    a = rand_poly(rng)
    assert a.adams(2).adams(3) == a.adams(6)


def test_adams_rejects_bad_index():
    with pytest.raises(ValueError):
        ONE.adams(0)


def test_dualize_involution_and_homomorphism():
    rng = random.Random(17)
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        assert a.dual().dual() == a
        assert (a * b).dual() == a.dual() * b.dual()
    assert U.dual() == LaurentPoly({(-2, 0): 1})


# ------------------------------------------------------------ exact division


def test_divide_oracle_basic():
    # (1 - L^2) / (1 - L) = 1 + L
    assert exact_divide_cyclo(ONE - lefschetz(2), 1) == ONE + L


def test_divide_oracle_shifted():
    p = (ONE + U) * (ONE - lefschetz(2))
    assert exact_divide_cyclo(p, 2) == ONE + U


def test_divide_round_trip_random():
    rng = random.Random(19)
    for _ in range(30):
        p = rand_poly(rng, nterms=5)
        k = rng.randint(1, 3)
        prod = p * (ONE - lefschetz(k))
        assert exact_divide_cyclo(prod, k) == p


def test_divide_zero():
    assert exact_divide_cyclo(LaurentPoly.zero(), 3).is_zero()


def test_divide_not_divisible():
    with pytest.raises(NotDivisibleError):
        exact_divide_cyclo(ONE - L, 2)  # 1 - L is not a multiple of 1 - L^2
    with pytest.raises(NotDivisibleError):
        exact_divide_cyclo(ONE + L, 1)
    with pytest.raises(NotDivisibleError):
        exact_divide_cyclo(U - L, 1)  # u - uv = u(1 - v) only vanishes on v = 1


def test_divide_running_sum_returns_to_zero():
    # (1 - L)(1 + L^5) / (1 - L): the running sum along the diagonal is 1
    # at L^0, then 0 from L^1 to L^4, then 1 at L^5 again
    L5 = lefschetz(5)
    assert exact_divide_cyclo((ONE - L) * (ONE + L5), 1) == ONE + L5


def test_divide_running_sums_are_canonical():
    # (1/2 + L)(1 - L) = 1/2 + L/2 - L^2: the running sum 1/2 + 1/2 is the int 1
    half = Fraction(1, 2)
    q = exact_divide_cyclo(half * ONE + half * L - lefschetz(2), 1)
    assert q == half * ONE + L and type(q.terms[(2, 2)]) is int


def test_divide_one_line_divisible_one_not():
    # the line of 1 - L sums to 0; the line of u (alone on it) does not
    with pytest.raises(NotDivisibleError, match=r"not divisible by 1 - L\^1"):
        exact_divide_cyclo(ONE - L + U, 1)
    with pytest.raises(NotDivisibleError):
        exact_divide_cyclo(U - U * L + V, 1)


# ------------------------------------------------------------- denominators


def test_denominator_canonical_order():
    assert CycloDenominator.of(3, 1, 2).factors == (1, 2, 3)


def test_denominator_lcm_and_diff():
    a = CycloDenominator.of(1, 1, 2)
    b = CycloDenominator.of(1, 2, 2, 3)
    assert a.lcm(b).factors == (1, 1, 2, 2, 3)
    assert a.lcm(b).diff(a) == (2, 3)
    assert a.lcm(b).diff(b) == (1,)
    with pytest.raises(ValueError):
        a.diff(b)


def test_denominator_expand():
    assert CycloDenominator.of(1).expand() == ONE - L
    assert CycloDenominator.of(1, 2).expand() == (ONE - L) * (ONE - lefschetz(2))


# --------------------------------------------------------------- ring elems


def test_ring_elem_equality_cross_multiplication():
    one_over = RingElem(ONE, CycloDenominator.of(1))
    other = RingElem(ONE + L, CycloDenominator.of(2))
    assert one_over == other
    assert not (one_over == RingElem(ONE, CycloDenominator.of(2)))


def test_ring_elem_add_uses_lcd():
    a = RingElem(ONE, CycloDenominator.of(1))
    b = RingElem(L, CycloDenominator.of(1))
    s = a + b
    assert s.den.factors == (1,)
    assert s.num == ONE + L
    # different denominators: 1/(1-L) + 1/(1-L^2) = (1 + L + 1)/(1-L^2) ... cross-check by equality
    c = RingElem(ONE, CycloDenominator.of(2))
    assert a + c == RingElem(ONE + L + ONE, CycloDenominator.of(2))


def test_ring_elem_mul_concatenates():
    a = RingElem(U, CycloDenominator.of(1))
    b = RingElem(V, CycloDenominator.of(2, 2))
    assert (a * b).den.factors == (1, 2, 2)
    assert (a * b).num == L


def test_ring_elem_axioms_random():
    rng = random.Random(23)
    for _ in range(15):
        a, b, c = (rand_elem(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == RingElem.zero()


def test_ring_sum_matches_pairwise():
    rng = random.Random(29)
    elems = [rand_elem(rng) for _ in range(5)]
    total = RingElem.zero()
    for e in elems:
        total = total + e
    assert ring_sum(elems) == total
    assert ring_sum([]).is_zero()


def test_adams_on_ring_elem():
    x = RingElem(ONE, CycloDenominator.of(1))
    # psi_2 (1/(1-L)) = 1/(1-L^2)
    assert x.adams(2) == RingElem(ONE, CycloDenominator.of(2))


def test_to_polynomial():
    p = (ONE + U + V) * (ONE - L) * (ONE - lefschetz(2))
    x = RingElem(p, CycloDenominator.of(1, 2))
    assert x.to_polynomial() == ONE + U + V
    bad = RingElem(ONE + L, CycloDenominator.of(1))
    with pytest.raises(NotDivisibleError):
        bad.to_polynomial()


# ------------------------------------------------------------ specialization


def test_specialize_y_basic():
    assert specialize_y(U + V) == UniPoly({2: 2})
    assert specialize_y(half_lefschetz(1)) == UniPoly({2: -1})
    assert specialize_y(LaurentPoly({(2, -2): 1})) == UniPoly.one()  # u/v -> 1
    assert specialize_y((ONE - U) * (ONE - V)) == (UniPoly.one() - UniPoly({2: 1})) ** 2


def test_specialize_y_is_multiplicative():
    rng = random.Random(31)
    for _ in range(20):
        a, b = rand_poly(rng), rand_poly(rng)
        assert specialize_y(a * b) == specialize_y(a) * specialize_y(b)
        assert specialize_y(a + b) == specialize_y(a) + specialize_y(b)


def test_specialize_elem():
    x = RingElem(U, CycloDenominator.of(1))
    num, den = specialize_elem(x)
    assert num == UniPoly({2: 1})
    assert den == UniPoly.one() - UniPoly({4: 1})


def test_records_sorted():
    # the CLI's JSON term list: sorted by (eu2, ev2), keys sorted, p/q as num/den
    p = LaurentPoly({(2, 0): 1, (0, 2): 1, (-1, -1): Fraction(1, 2)})
    recs = json.loads(cli._terms_json(p + LaurentPoly({(4, 4): Fraction(-2, 3)})))
    assert [(r["eu2"], r["ev2"]) for r in recs] == [(-1, -1), (0, 2), (2, 0), (4, 4)]
    assert all(list(r) == ["den", "eu2", "ev2", "num"] for r in recs)
    assert recs[0] == {"eu2": -1, "ev2": -1, "num": 1, "den": 2}
    assert recs[3] == {"eu2": 4, "ev2": 4, "num": -2, "den": 3}



def test_far_apart_exponents_multiply_quickly():
    # Packed by Kronecker substitution, the last two products would need
    # a box of about 10^12 and 10^6 slots; they must take the dict loop.
    n = 10**6
    u, v, y = LaurentPoly({(2 * n, 0): 1}), LaurentPoly({(0, 2 * n): 1}), UniPoly({2 * n: 1})
    y_one = UniPoly.one()
    cases = [
        (ONE + u, ONE + v, {(0, 0), (2 * n, 0), (0, 2 * n), (2 * n, 2 * n)}),
        (y_one + y, y_one + y * y * y, {0, 2 * n, 6 * n, 8 * n}),
        (ONE + U + u, ONE + V + v, {(a, b) for a in (0, 2, 2 * n) for b in (0, 2, 2 * n)}),
        (y_one + UniPoly({1: 1}), y_one + y, {0, 1, 2 * n, 2 * n + 1}),
    ]
    for a, b, keys in cases:
        start = time.perf_counter()
        product = a * b
        assert time.perf_counter() - start < 0.5
        assert product.terms == dict.fromkeys(keys, 1)


def test_far_apart_exponents_add_quickly():
    # Exponents 10^6 + 1 apart and shifts by a prime k: sums and equality
    # must cost time and memory in the number of terms, not in the exponents.
    n, k = 10**6 + 1, 99991
    u, v = LaurentPoly({(2 * n, 0): 1}), LaurentPoly({(0, 2 * n): 1})
    a = RingElem(ONE + u, CycloDenominator.of(k))
    b = RingElem(ONE + v, CycloDenominator.of(k, 3 * k))
    b_over_a = (ONE + u) * (ONE - lefschetz(3 * k))
    tracemalloc.start()
    try:
        start = time.perf_counter()
        total, sums = a + b, [ring_sum([a, b, -a]), b - a + a]
        equal = [a == a + b - b, b == a, a + b == b + a]
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 2**20
    assert total.num == b_over_a + ONE + v and total.den == CycloDenominator.of(k, 3 * k)
    assert all(s.num == (ONE + v) for s in sums) and equal == [True, False, True]
