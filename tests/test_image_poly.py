"""Differential tests: the image-ring numerators against the diagonal kernel.

``ImagePoly`` holds w^lo * row / scale, w = (uv)^(1/2); its oracle is the
same polynomial as a ``LaurentPoly`` on the diagonal keys (lo + i, lo + i),
and ``polyref`` for products, cyclotomic multiples and divisions.  Every
operation of the u = v pipeline is compared: products on both sides of
``_ROW_PAIRS``, weighted sums over a common denominator on both sides of
``_ROW_SHIFTS`` (also sums that cancel to 0), Adams operations, duality and
exact division, whose failure must name the same first factor.  Hypothesis
runs derandomized, so the examples are the same on every run.
"""

import contextlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import polyref as ref
from curvedt import ring
from curvedt.ring import (
    CycloDenominator,
    DomainError,
    ImagePoly,
    LaurentPoly,
    NotDivisibleError,
    RingElem,
    exact_divide_cyclo,
    ring_sum,
)

SETTINGS = settings(derandomize=True, max_examples=25, deadline=None, database=None)

small = st.one_of(st.integers(-9, 9), st.fractions(-5, 5, max_denominator=4))
coefficient = st.one_of(small, st.integers(-2**70, 2**70))
nonzero = coefficient.filter(bool)


def rows(min_len, max_len):
    """(lo, row) with nonzero ends and zeros allowed inside, lo in [-20, 20]."""
    inner = st.lists(coefficient, min_size=max(min_len - 2, 0), max_size=max_len - 2)
    ends = st.tuples(nonzero, inner, nonzero).map(lambda t: [t[0], *t[1], t[2]])
    row = st.one_of(nonzero.map(lambda c: [c]), ends) if min_len <= 1 else ends
    return st.tuples(st.integers(-20, 20), row)


def diagonal(lo, row):
    """The oracle's term dict of w^lo row: the keys (lo + i, lo + i)."""
    return {(e, e): Fraction(c) for e, c in enumerate(row, lo) if c}


def pair(lo_row):
    """The ImagePoly and its oracle terms."""
    lo, row = lo_row
    return ImagePoly(lo, row), diagonal(lo, row)


@contextlib.contextmanager
def pack_calls():
    """A list with one entry per _pack call."""
    calls = []
    real = ring._pack

    def spy(*args):
        calls.append(None)
        return real(*args)

    with mock.patch.object(ring, "_pack", spy):
        yield calls


# ------------------------------------------------ construction and the maps

@SETTINGS
@given(st.integers(-20, 20), st.lists(coefficient, max_size=12), st.integers(1, 6))
def test_rows_adams_and_dual_match_the_diagonal_kernel(lo, row, n):
    p, terms = ImagePoly(lo, row), diagonal(lo, row)
    assert p.to_laurent().terms == terms  # zero ends dropped, zero rows included
    assert p.is_zero() == (not terms) and bool(p) == bool(terms)
    assert p.adams(n).to_laurent().terms == ref.adams(terms, n) == LaurentPoly(terms).adams(n).terms
    assert p.dual().to_laurent().terms == ref.dual(terms)
    assert p.adams(n).dual() == p.dual().adams(n) and p.dual().dual() == p
    assert (-p).to_laurent().terms == ref.neg(terms)
    # a sparse Adams image keeps its own terms through a product with 1
    assert (p.adams(n) * ImagePoly.one()).to_laurent().terms == ref.adams(terms, n)


@SETTINGS
@given(rows(1, 10), rows(1, 10), small)
def test_sums_differences_and_scalars_match_reference(a, b, c):
    (pa, ta), (pb, tb) = pair(a), pair(b)
    assert (pa + pb).to_laurent().terms == ref.add(ta, tb)
    assert (pa - pb).to_laurent().terms == ref.sub(ta, tb)
    assert (pa - pa).is_zero() and pa - pa == ImagePoly.zero()
    assert (pa * c).to_laurent().terms == ref.scale(ta, c) == (c * pa).to_laurent().terms
    assert (pa == pb) == (ta == tb)
    assert (pa ** 3).to_laurent().terms == ref.power(ta, 3, (0, 0))


def test_only_ints_and_fractions_enter_and_classes_never_mix():
    for bad in (1.5, "1", None):
        with pytest.raises(DomainError):
            ImagePoly(0, [1, bad])
    with pytest.raises(DomainError):
        ImagePoly(0.5, [1])
    with pytest.raises(DomainError):
        ImagePoly.one().adams(0)
    image, laurent = ImagePoly(0, [1, 2]), LaurentPoly({(0, 0): 1, (1, 1): 2})
    assert image.to_laurent() == laurent and image != laurent
    for op in (lambda: image * laurent, lambda: laurent * image, lambda: image + laurent):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(TypeError):
        ring_sum([RingElem(image), RingElem(laurent)])
    with pytest.raises(TypeError):
        RingElem(image) == RingElem(laurent)


# ------------------------------------------------ products on both sides of _ROW_PAIRS

def check_product(a, b, packs_wanted):
    (pa, ta), (pb, tb) = pair(a), pair(b)
    with pack_calls() as packs:
        got = pa * pb
    assert len(packs) == packs_wanted
    assert got.to_laurent().terms == ref.mul(ta, tb) == (LaurentPoly(ta) * LaurentPoly(tb)).terms
    return got


@SETTINGS
@given(rows(1, 22), rows(1, 22))
def test_short_products_take_row_slices(a, b):
    assert len(a[1]) * len(b[1]) <= ring._ROW_PAIRS
    check_product(a, b, 0)


@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(rows(24, 60), rows(24, 60))
def test_long_products_take_one_kronecker_product(a, b):
    assert len(a[1]) * len(b[1]) > ring._ROW_PAIRS
    check_product(a, b, 2)


@SETTINGS
@given(rows(1, 8), rows(1, 8), st.integers(2, 6), st.integers(2, 6))
def test_products_of_sparse_adams_images(a, b, m, n):
    (pa, ta), (pb, tb) = pair(a), pair(b)
    got = pa.adams(m) * pb.adams(n)
    assert got.to_laurent().terms == ref.mul(ref.adams(ta, m), ref.adams(tb, n))


def test_products_at_the_threshold():
    # 16 x 32 = _ROW_PAIRS pairs take the slices, one more entry the Kronecker product
    assert ring._ROW_PAIRS == 16 * 32
    a = (-3, [Fraction(i + 1, 3) for i in range(16)])
    check_product(a, (5, [(-1) ** i * (i + 2) for i in range(32)]), 0)
    check_product(a, (5, [(-1) ** i * (i + 2) for i in range(33)]), 2)


# ------------------------------------------------ sums on both sides of _ROW_SHIFTS

FACTORS = (1, 1, 2, 3, 3, 4, 5, 6)


def random_items(rnd, n_items, length, big):
    """n_items (lo, row, factors, weight): the first carries every factor, the others at
    most one, so nearly every factor is missing from them."""
    items = []
    for i in range(n_items):
        row = [rnd.choice([0, rnd.randint(-9, 9), Fraction(rnd.randint(-9, 9), rnd.randint(1, 5))]
                          + [rnd.getrandbits(90) - 2**89] * big) for _ in range(length)]
        row[0] = row[-1] = rnd.randint(1, 9)
        ks = FACTORS if i == 0 else tuple(rnd.sample(FACTORS, rnd.randint(0, 1)))
        items.append((rnd.randint(-15, 15), row, ks, rnd.choice([1, 1, -1, 2, -3])))
    return items


def check_sum(items, packed):
    """The weighted sum of the items in both kernels, the branch it took, and the result."""
    image = [RingElem(ImagePoly(lo, row), CycloDenominator(ks)) for lo, row, ks, _ in items]
    laurent = [RingElem(LaurentPoly(diagonal(lo, row)), CycloDenominator(ks)) for lo, row, ks, _ in items]
    weights = [w for *_, w in items]
    with pack_calls() as packs:
        got = ring_sum(image, weights)
    assert bool(packs) == packed
    want = ring_sum(laurent, weights)
    assert (got.num.to_laurent().terms, got.den) == (want.num.terms, want.den)
    shifts = sum(len(row) * len(got.den.diff(x.den)) for (_, row, _, _), x in zip(items, image))
    assert (shifts >= ring._ROW_SHIFTS) == packed
    return got


rngs = st.integers(0, 2**32 - 1).map(random.Random)


@SETTINGS
@given(rngs, st.integers(1, 5), st.integers(1, 12))
def test_small_sums_shift_subtract_rows(rnd, n_items, length):
    check_sum(random_items(rnd, n_items, length, rnd.random() < 0.5), False)


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(rngs)
def test_many_factor_sums_pack_each_row(rnd):
    # six items of 40 entries missing 7 or 8 of the 8 factors: at least 1,680 shifts
    check_sum(random_items(rnd, 7, 40, rnd.random() < 0.5), True)


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(rngs, st.sampled_from([(4, 6, False), (7, 40, True)]))
def test_sums_that_cancel_to_zero(rnd, shape):
    n_items, length, packed = shape
    items = random_items(rnd, n_items, length, False)
    both = items + [(lo, row, ks, -w) for lo, row, ks, w in items]
    rnd.shuffle(both)
    total = check_sum(both, packed)
    assert total.is_zero()
    first = [RingElem(ImagePoly(lo, row), CycloDenominator(ks)) * w for lo, row, ks, w in items]
    assert ring_sum(first) == ring_sum(first[::-1])
    assert ring_sum(first) != ring_sum(first) + RingElem(ImagePoly(3, [Fraction(1, 3)]))


# ------------------------------------------------ exact division

@SETTINGS
@given(rows(1, 15), st.lists(st.integers(1, 5), min_size=1, max_size=4))
def test_exact_division_matches_the_diagonal_kernel(a, ks):
    pa, ta = pair(a)
    multiple = ref.times_cyclo(ta, ks)
    p = pa
    for k in ks:
        p = p - p * ImagePoly(2 * k, [1])
    assert p.to_laurent().terms == multiple
    q = exact_divide_cyclo(p, *ks)
    assert q == pa and q.to_laurent().terms == exact_divide_cyclo(LaurentPoly(multiple), *ks).terms
    assert RingElem(p, CycloDenominator(tuple(ks))).to_polynomial() == pa


@SETTINGS
@given(rows(1, 15), st.lists(st.integers(1, 5), min_size=1, max_size=4), st.integers(0, 3),
       st.integers(-20, 40), nonzero)
def test_a_remainder_names_the_same_first_factor(a, ks, i, e, c):
    # a remainder c w^e times the first i factors: the first i divisions are exact,
    # and the next one fails, as c w^e does not vanish at w = 1
    pa, ta = pair(a)
    i %= len(ks)
    bump = ImagePoly(e, [c])
    for k in ks[:i]:
        bump = bump - bump * ImagePoly(2 * k, [1])
    p = pa
    for k in ks:
        p = p - p * ImagePoly(2 * k, [1])
    with pytest.raises(NotDivisibleError) as laurent:
        exact_divide_cyclo(LaurentPoly(ref.add(ref.times_cyclo(ta, ks),
                                               ref.times_cyclo({(e, e): Fraction(c)}, ks[:i]))), *ks)
    with pytest.raises(NotDivisibleError) as image:
        exact_divide_cyclo(p + bump, *ks)
    assert str(image.value) == str(laurent.value) == f"not divisible by 1 - L^{ks[i]}"


def test_to_polynomial_reduces_the_scale():
    p = ImagePoly(-1, [2, 0, 4]) * Fraction(1, 2)
    q = RingElem(p - p * ImagePoly(2, [1]), CycloDenominator.of(1)).to_polynomial()
    assert q == ImagePoly(-1, [1, 0, 2]) and q._scale == 1 and q._row == [1, 0, 2]
