"""Betti numbers on the u = v image, against the bivariate pipeline.

``betti`` (table and CSV) and ``detfactor`` run the pipeline on the
images of its inputs under phi: u, v -> (uv)^(1/2), the key map
(a, b) -> ((a + b)/2, (a + b)/2).  phi is a ring map that fixes L^(1/2),
commutes with Adams operations and duality, and keeps the specialization
u = v = y, so the image path must give phi of the bivariate HDT and the
same Betti numbers.  On both paths the Betti numbers are the main
theorem's reading of HDT: HDT(-y,-y) = sum of b_k y^(k - dim).  The
diagonal keys also take a one-axis box in the product kernel, checked
here against the ``polyref`` oracle.
"""

import warnings
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import polyref as ref
from dispatchref import product_path
from curvedt import ring
from curvedt.invariants import betti_numbers, determinant_factor, dim_moduli, hdt, ih_poincare
from curvedt.ring import LaurentPoly, specialize_y

CLASSES = [(g, r, d) for g in (2, 3) for r in range(1, 6) for d in range(r)]
CLASSES += [(4, 4, 1), (5, 4, 1)]


def phi(terms):
    """The image of a bivariate term dict under (a, b) -> ((a + b)/2, (a + b)/2)."""
    out = {}
    for (a, b), c in terms.items():
        assert (a - b) % 2 == 0
        e = (a + b) // 2
        out[e, e] = out.get((e, e), 0) + c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("g, r, d", CLASSES)
def test_image_path_matches_bivariate(g, r, d):
    assert hdt(g, r, d, diagonal=True).terms == phi(hdt(g, r, d).terms)
    betti = betti_numbers(g, r, d)
    assert betti == ih_poincare(g, r, d).betti
    assert determinant_factor(g, betti) == determinant_factor(g, ih_poincare(g, r, d).betti)


# ------------------------------------------------ HDT(-y,-y) is the Betti polynomial

# a residue period and as many negative degrees per rank; at genus <= 1 the
# dimension formula needs gcd(r, d) = 1
READINGS = [(g, r, d) for g in (2, 3) for r in range(1, 6) for d in range(-r, r)]
READINGS += [(1, r, d) for r in range(1, 5) for d in range(-r, r) if gcd(r, d) == 1]
READINGS += [(0, 1, d) for d in range(-2, 3)]
# the ids keep the suffix of the checks mode these cases ran under before every
# check always ran ("on" at genus >= 2, "warn" below), so that their ids carry on
READING_IDS = [f"{g}-{r}-{d}-{'on' if g >= 2 else 'warn'}" for g, r, d in READINGS]


def at_minus_y(h):
    """HDT(-y,-y) as doubled-exponent terms, through the polyref oracle."""
    return ref.at_neg_y(specialize_y(h).terms)


def betti_polynomial(betti, dim):
    """sum of b_k y^(k - dim) as doubled-exponent terms."""
    return {2 * (k - dim): b for k, b in enumerate(betti) if b}


@pytest.mark.parametrize("g, r, d", READINGS, ids=READING_IDS)
def test_hdt_at_minus_y_is_the_betti_polynomial(g, r, d):
    dim = dim_moduli(g, r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no check may fail, and nothing may warn
        res = ih_poincare(g, r, d)
        image, betti = hdt(g, r, d, diagonal=True), betti_numbers(g, r, d)
    assert res.betti[0] == 1
    assert at_minus_y(res.hdt) == betti_polynomial(res.betti, dim)
    assert at_minus_y(image) == betti_polynomial(betti, dim)


# ------------------------------------------------ one-axis products of diagonal operands

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None, database=None)
nonzero = st.one_of(st.integers(-2**70, 2**70), st.fractions(-5, 5, max_denominator=4)).filter(bool)


def diagonal(lo, hi, min_size, max_size):
    """Term dicts on keys (e, e), lo <= e <= hi."""
    keys = st.integers(lo, hi).map(lambda e: (e, e))
    return st.dictionaries(keys, nonzero, min_size=min_size, max_size=max_size).map(
        lambda t: {k: Fraction(c) for k, c in t.items()})


@contextmanager
def pack_calls():
    """A list that records the slot list of each _pack call."""
    slots = []
    real = ring._pack

    def spy(s, *args):
        slots.append(s)
        return real(s, *args)

    with mock.patch.object(ring, "_pack", spy):
        yield slots


@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(diagonal(-20, 20, 20, 30), diagonal(-20, 20, 20, 30))
def test_dense_diagonal_products_pack_on_one_axis(a, b):
    # one axis of 81 slots; two would make 81^2, far too sparse to pack
    with pack_calls() as slots:
        got = (LaurentPoly(a) * LaurentPoly(b)).terms
    assert got == ref.mul(a, b)
    assert len(slots) == 2 and max(map(max, slots)) <= 40


@SETTINGS
@given(diagonal(-10**6, 10**6, 1, 10), diagonal(-10**6, 10**6, 1, 10))
def test_sparse_diagonal_products_take_the_dict_loop(a, b):
    with pack_calls() as slots:
        got = (LaurentPoly(a) * LaurentPoly(b)).terms
    assert got == ref.mul(a, b) and not slots


@SETTINGS
@given(diagonal(-4, 4, 1, 9), st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                                                nonzero, min_size=1, max_size=25))
def test_diagonal_times_off_diagonal_keeps_two_axes(a, b):
    b = {k: Fraction(c) for k, c in b.items()}
    b[0, 1] = Fraction(1)  # at least one key off the diagonal
    with pack_calls() as slots:
        got = (LaurentPoly(a) * LaurentPoly(b)).terms
    assert got == ref.mul(a, b) == (LaurentPoly(b) * LaurentPoly(a)).terms
    assert bool(slots) == (product_path(a, b) in ("shift", "kronecker"))


def test_diagonal_times_off_diagonal_packs_on_two_axes():
    # 17 diagonal terms times a 5 x 5 grid: past the key loop, the grid packed
    # once for shift-adds, in the two-axis box of 21 x 21 slots
    a = {(e, e): Fraction(e or 7, 3) for e in range(-8, 9)}
    b = {(x, y): Fraction(x - 2 * y + 11) for x in range(-2, 3) for y in range(-2, 3)}
    assert product_path(a, b) == "shift"
    with pack_calls() as slots:
        got = (LaurentPoly(a) * LaurentPoly(b)).terms
    assert got == ref.mul(a, b)
    assert len(slots) == 1 and len(slots[0]) == len(b) and max(slots[0]) == 4 * 21 + 4
