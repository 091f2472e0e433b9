"""Cross-basis differential tests: SymPoly, in s = u + v, against LaurentPoly.

``SymPoly.to_laurent`` substitutes s = u + v.  It is an injective ring
map, so it must commute with every kernel operation: products on each of
their paths (the key loop, shift-adds, Kronecker products with one-,
two- and three-word slots), sums and equality over (1 - L^k)
denominators on both branches of the common-denominator sum, exact
division and its error, and the Adams operations, whose image of s is a
Lucas polynomial.  Inputs are random symmetric polynomials built in
SymPoly, where s^i (uv)^(e/2) is the key (e + i, e - i).  Hypothesis runs
derandomized.

One frontier-scale product is audited by evaluation modulo the prime
2^61 - 1 instead: the SymPoly form at s = x + y, uv = xy, the (u, v) form
at (x, y), and the operands' values multiplied, all agree.
"""

import contextlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import polyref as ref
from curvedt import ring
from curvedt.invariants import q_rank
from curvedt.ring import (
    CycloDenominator,
    DomainError,
    LaurentPoly,
    NotDivisibleError,
    RingElem,
    SymPoly,
    exact_divide_cyclo,
    half_lefschetz,
)

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None, database=None)
# a seed for the random module draws the bulk of a large example
rngs = st.integers(0, 2**32 - 1).map(random.Random)
coeffs = st.one_of(st.integers(-9, 9), st.fractions(min_value=-5, max_value=5, max_denominator=6))


def key(i, e):
    """The SymPoly key of s^i (uv)^(e/2)."""
    return e + i, e - i


def sym_terms(max_i, max_e, max_size, min_size=0):
    return st.dictionaries(st.tuples(st.integers(0, max_i), st.integers(-max_e, max_e)).map(
        lambda ie: key(*ie)), coeffs, min_size=min_size, max_size=max_size)


def random_sym(rnd, n, max_i, max_e, bits):
    """n terms on the rectangle i <= max_i, |e| <= max_e, with int coefficients of
    at most `bits` bits, one of them exactly `bits` bits."""
    keys = rnd.sample([key(i, e) for i in range(max_i + 1) for e in range(-max_e, max_e + 1)], n)
    terms = {k: rnd.choice((1, -1)) * (rnd.getrandbits(bits - 1) + 1) for k in keys}
    terms[keys[0]] = rnd.choice((1, -1)) * (1 << (bits - 1))
    return terms


@contextlib.contextmanager
def pack_calls():
    """A list that records (slot count, slot width) for each _pack call."""
    calls = []
    real = ring._pack

    def spy(slots, coeffs, width):
        calls.append((len(slots), width))
        return real(slots, coeffs, width)

    with mock.patch.object(ring, "_pack", spy):
        yield calls


def check_product(a, b, oracle=False):
    """a * b in SymPoly, converted, against the (u, v) product and, with oracle,
    the dict reference; the _pack calls it made."""
    pa, pb = SymPoly(a), SymPoly(b)
    with pack_calls() as calls:
        got = (pa * pb).to_laurent()
    ua, ub = pa.to_laurent(), pb.to_laurent()
    assert got == ua * ub
    assert not oracle or got.terms == ref.mul(ua.terms, ub.terms)
    return calls


# ------------------------------------------------ products on every path

@SETTINGS
@given(sym_terms(4, 6, 16), sym_terms(4, 6, 16))
def test_small_products_commute_with_the_substitution(a, b):
    # at most 256 pairs, Fraction coefficients: the key loop, nothing packed
    assert check_product(a, b, oracle=True) == []


@SETTINGS
@given(rngs, st.integers(3, 6))
def test_shift_add_products_commute_with_the_substitution(rnd, n):
    # a factor of 3 to 8 terms spanning s^0 .. s^3, times 100 terms of a 6 x 21
    # rectangle: past the key loop, one packed operand
    few = random_sym(rnd, n, 3, 6, 30)
    few[key(0, -6)], few[key(3, 6)] = 1, -1
    big = random_sym(rnd, 100, 5, 10, 30)
    for x, y in ((few, big), (big, few)):
        calls = check_product(x, y)
        assert [count for count, _ in calls] == [len(big)]


@pytest.mark.parametrize("bits, words", [(20, 1), (45, 2), (80, 3)])
@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(rnd=rngs)
def test_kronecker_products_commute_with_the_substitution(bits, words, rnd):
    # two dense rectangles of 80 or more terms: both packed, in slots of `words` 64-bit words
    a = random_sym(rnd, rnd.randint(80, 126), 5, 10, bits)
    b = random_sym(rnd, rnd.randint(80, 126), 5, 10, bits)
    calls = check_product(a, b)
    assert sorted(n for n, _ in calls) == sorted((len(a), len(b)))
    assert {-(-w // 8) for _, w in calls} == {words}


def test_pipeline_factors_multiply_as_in_u_and_v():
    # Q_(r-1) times (1 - sL^(r-1) + L^(2r-1))^g L^((1-g)(2r-1)/2), the product of q_rank
    for g in (2, 3):
        for r in range(2, 7):
            curve = SymPoly({(0, 0): 1, key(1, 2 * r - 2): -1, key(0, 4 * r - 2): 1}) ** g
            factor = curve * half_lefschetz((1 - g) * (2 * r - 1), SymPoly)
            prev = q_rank(g, r - 1).num
            assert q_rank(g, r).num == prev * factor
            assert (prev * factor).to_laurent() == prev.to_laurent() * factor.to_laurent()


# ------------------------------------------------ sums and equality over (1 - L^k)

def in_uv(x):
    return RingElem(x.num.to_laurent(), x.den)


def one_minus_lefschetz(k):
    return SymPoly({(0, 0): 1, key(0, 2 * k): -1})


@contextlib.contextmanager
def packed_sums():
    """A list that records, for each sum, whether it was packed."""
    paths = []
    real = ring._packed_sum

    def spy(*args):
        out = real(*args)
        paths.append(out is not None)
        return out

    with mock.patch.object(ring, "_packed_sum", spy):
        yield paths


def check_sum(elems, packed):
    """The sum of elems, after checking it against the (u, v) sum and that it was
    packed or not."""
    with packed_sums() as paths:
        total = ring.ring_sum(elems)
    assert paths == [packed]
    want = ring.ring_sum([in_uv(x) for x in elems])
    assert type(total.num) is SymPoly
    assert (total.num.to_laurent().terms, total.den) == (want.num.terms, want.den)
    return total


@SETTINGS
@given(st.lists(st.tuples(sym_terms(3, 4, 8), st.lists(st.integers(1, 4), max_size=4)),
                min_size=2, max_size=5))
def test_small_sums_commute_with_the_substitution(items):
    elems = [RingElem(SymPoly(t), CycloDenominator(tuple(ks))) for t, ks in items]
    check_sum(elems, False)
    a, b = elems[0], elems[-1]
    assert (a == b) == (in_uv(a) == in_uv(b))
    assert in_uv(a + b) == in_uv(a) + in_uv(b) and in_uv(a - a).is_zero()


LCD = (1, 1, 1, 2, 2, 3, 4, 6)


@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(rngs)
def test_packed_sums_commute_with_the_substitution(rnd):
    # 7 items of 50 terms, six of them missing 7 or 8 of the 8 factors: packed
    elems = [RingElem(SymPoly(random_sym(rnd, 50, 5, 5, 40)),
                      CycloDenominator(LCD if i == 0 else tuple(rnd.sample(LCD, rnd.randint(0, 1)))))
             for i in range(7)]
    total = check_sum(elems, True)
    # the same fraction over a denominator with eight more factors: 8 * len(total) shifts
    extra = (1, 1, 2, 2, 3, 3, 4, 4)
    wider = total.num
    for k in extra:
        wider = wider * one_minus_lefschetz(k)
    wider = RingElem(wider, total.den * CycloDenominator(extra))
    bumped = RingElem(wider.num + SymPoly({key(1, 0): Fraction(1, 3)}), wider.den)
    with packed_sums() as paths:
        assert total == wider and wider == total and total != bumped
    assert paths == [True, True, True]
    assert (in_uv(total) == in_uv(wider), in_uv(total) == in_uv(bumped)) == (True, False)


def test_numerators_of_two_classes_do_not_mix():
    sym, uv = RingElem(SymPoly.one()), RingElem.one()
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x == y,
               lambda x, y: ring.ring_sum([x, y])):
        for x, y in ((sym, uv), (uv, sym)):
            with pytest.raises(TypeError):
                op(x, y)
    with pytest.raises(TypeError):
        SymPoly.one() * LaurentPoly.one()
    assert SymPoly.one() != LaurentPoly.one()


def test_keys_outside_the_symmetric_ring_are_refused():
    for bad in ((0, 2), (1, 0), (3, 0), (0.0, 0)):
        with pytest.raises(DomainError):
            SymPoly({bad: 1})


# ------------------------------------------------ exact division

@SETTINGS
@given(sym_terms(4, 6, 8), st.lists(st.integers(1, 5), max_size=6))
def test_division_commutes_with_the_substitution(q, ks):
    p = SymPoly(q)
    for k in ks:
        p = p * one_minus_lefschetz(k)
    got = exact_divide_cyclo(p, *ks)
    assert type(got) is SymPoly and got.terms == SymPoly(q).terms
    assert got.to_laurent() == exact_divide_cyclo(p.to_laurent(), *ks)


def first_failure(f, *args):
    try:
        f(*args)
    except NotDivisibleError as exc:
        return str(exc)
    return None


@SETTINGS
@given(st.lists(st.tuples(sym_terms(3, 4, 6), st.lists(st.integers(1, 5), max_size=4)),
                min_size=1, max_size=3), st.lists(st.integers(1, 5), min_size=1, max_size=6))
def test_division_fails_on_the_same_first_factor(parts, ks):
    # a sum of multiples of different factor sets: its s-degrees fail at different factors
    p = SymPoly.zero()
    for q, part_ks in parts:
        part = SymPoly(q)
        for k in part_ks:
            part = part * one_minus_lefschetz(k)
        p = p + part
    want = first_failure(exact_divide_cyclo, p.to_laurent(), *ks)
    assert first_failure(exact_divide_cyclo, p, *ks) == want
    if want is None:
        assert exact_divide_cyclo(p, *ks).to_laurent() == exact_divide_cyclo(p.to_laurent(), *ks)
    x = RingElem(p, CycloDenominator(tuple(ks)))
    assert first_failure(x.to_polynomial) == first_failure(in_uv(x).to_polynomial)


# ------------------------------------------------ Adams operations

@SETTINGS
@given(sym_terms(5, 6, 10), st.integers(1, 6))
def test_adams_commutes_with_the_substitution(a, n):
    p = SymPoly(a)
    assert p.adams(n).to_laurent() == p.to_laurent().adams(n)
    assert (p * 3 * Fraction(1, 7)).adams(n).to_laurent() == (p.to_laurent() * Fraction(3, 7)).adams(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_adams_images_of_s_and_of_the_half_lefschetz(n):
    # psi_n(s) = u^n + v^n, and psi_n(L^(1/2)) = (-1)^(n-1) L^(n/2)
    s = SymPoly({key(1, 0): 1})
    assert s.adams(n).to_laurent() == LaurentPoly({(2 * n, 0): 1, (0, 2 * n): 1})
    half = half_lefschetz(1, SymPoly)
    assert half.adams(n) == half_lefschetz(n, SymPoly) * (-1) ** (n - 1)
    assert half.adams(n).to_laurent() == half_lefschetz(1).adams(n)
    with pytest.raises(DomainError):
        s.adams(0)


# ------------------------------------------------ a frontier-scale product, audited mod p

P = 2**61 - 1


def eval_uv(p, x, y):
    """p at u^(1/2) = x, v^(1/2) = y, modulo P."""
    return sum(c * pow(x, a, P) * pow(y, b, P) for (a, b), c in p.terms.items()) % P


def eval_sym(p, x, y):
    """p at s = x^2 + y^2 and (uv)^(1/2) = xy, modulo P: s^i (uv)^(e/2) is the key (e + i, e - i)."""
    s, w = (x * x + y * y) % P, x * y % P
    return sum(c * pow(s, (a - b) // 2, P) * pow(w, (a + b) // 2, P)
               for (a, b), c in p.terms.items()) % P


def test_a_frontier_product_agrees_in_both_bases_modulo_a_prime():
    # Q_7 at genus 5 squared: 5,846 x 5,846 terms in two-word slots
    a = q_rank(5, 7).num
    with pack_calls() as calls:
        c = a * a
    assert len(a) == 5846 and {-(-w // 8) for _, w in calls} == {2}
    # a wrong product passes at a random point with probability about deg / P (Schwartz-Zippel)
    rnd = random.Random(61)
    x, y = rnd.randrange(2, P), rnd.randrange(2, P)
    assert eval_sym(c, x, y) == eval_sym(a, x, y) ** 2 % P == eval_uv(c.to_laurent(), x, y)
