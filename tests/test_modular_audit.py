"""Modular audit of every product and division a real pipeline run makes.

The fixture wraps ``ring._product``, ``ring._row_product``,
``ring.exact_divide_cyclo``, ``ring._cleared_sum``, ``LaurentPoly.adams``
and ``ImagePoly.adams``.  Each product c = a * b is checked as
value(c) = value(a) * value(b), each division q = p / prod (1 - L^k) as
value(q) * prod (1 - value(L^k)) = value(p), each cleared sum (N, lcd) of
items num_i / den_i with weights w_i as value(N) = sum w_i * (D / scale_i)
* value(num_i) * prod (1 - value(L^k)) over the factors of lcd missing
from den_i, D the lcm of the scales and N's own scale, and each Adams image
as value(psi_n a) at (X, Y) = value(a) at (X^n, Y^n), all at one seeded
random point modulo 2^61 - 1 (``evalref``).  An ``ImagePoly`` row from its
lowest exponent lo is evaluated as the diagonal terms (lo + i, lo + i).
Where ``polyref`` checks the kernel on chosen operands, this checks it on
the operands the pipeline itself builds, at every path and slot width it
takes.  Each ``_pack`` call inside a product tells its path: none on the
key and dict loops and on row slices, one for a shift-add, two for a
Kronecker product; a cleared sum of dict numerators takes the packed
branch when ``_packed_sum`` returns a dict, else the dict branch, and one
of rows is packed when it calls ``_pack``.
"""

from collections import Counter
from math import lcm

import pytest

from curvedt import invariants, ring
from curvedt.invariants import betti_numbers, hdt, ih_poincare
from evalref import P, Point

PATHS = ("keys or dict", "shift", "kronecker")
ROW_PATHS = ("row slices", None, "row kronecker")


@pytest.fixture
def audit(monkeypatch):
    """Counter of the audited products by path, of the sums by branch and of the
    divisions, every pipeline cache cleared before and after."""
    point = Point(20151215)
    seen = Counter()
    packs = []
    pack, product, row_product = ring._pack, ring._product, ring._row_product
    divide, cleared_sum, packed_sum = ring.exact_divide_cyclo, ring._cleared_sum, ring._packed_sum
    adams, image_adams = ring.LaurentPoly.adams, ring.ImagePoly.adams

    def value(p, at=point):
        if isinstance(p, ring.ImagePoly):
            return at({(e, e): c for e, c in enumerate(p._row, p._lo)})
        return at(p._ints)

    def row_value(row):
        return point({(e, e): c for e, c in enumerate(row)})

    def counted_pack(*args):
        packs.append(None)
        return pack(*args)

    def audited_product(a, b, columns, from_columns):
        before = len(packs)
        c = product(a, b, columns, from_columns)
        seen[PATHS[len(packs) - before]] += 1
        assert point(c) == point(a) * point(b) % P
        return c

    def audited_row_product(a, b):
        before = len(packs)
        c = row_product(a, b)
        seen[ROW_PATHS[len(packs) - before]] += 1
        assert c[0] and c[-1] and len(c) == len(a) + len(b) - 1
        assert row_value(c) == row_value(a) * row_value(b) % P
        return c

    def audited_divide(p, *ks):
        q = divide(p, *ks)
        seen["division"] += 1
        seen["division factors"] += len(ks)
        assert q._scale == p._scale
        want = value(q)
        for k in ks:
            want = want * point.one_minus_lefschetz(k) % P
        assert want == value(p)
        return q

    def counted_packed_sum(*args):
        out = packed_sum(*args)
        seen["packed sum" if out is not None else "dict sum"] += 1
        return out

    def audited_cleared_sum(items, weights):
        weights = list(weights)
        before = len(packs)
        total, lcd = cleared_sum(items, weights)
        if isinstance(total, ring.ImagePoly):
            seen["packed row sum" if len(packs) > before else "row sum"] += 1
        den = lcm(*(x.num._scale for x in items))
        assert total._scale == den
        want = 0
        for x, w in zip(items, weights):
            term = w * (den // x.num._scale) * value(x.num)
            for k in lcd.diff(x.den):
                term = term * point.one_minus_lefschetz(k) % P
            want += term
        assert value(total) == want % P
        return total, lcd

    def at_power(n):
        at = Point(20151215)
        at.x, at.y = pow(point.x, n, P), pow(point.y, n, P)
        return at

    def audited_adams(a, n):
        image = adams(a, n)
        seen["adams"] += 1
        assert image._scale == a._scale and value(image) == value(a, at_power(n))
        return image

    def audited_image_adams(a, n):
        image = image_adams(a, n)
        seen["image adams"] += 1
        assert image._scale == a._scale and value(image) == value(a, at_power(n))
        return image

    def clear():
        for cached in vars(invariants).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()

    monkeypatch.setattr(ring, "_pack", counted_pack)
    monkeypatch.setattr(ring, "_product", audited_product)
    monkeypatch.setattr(ring, "_row_product", audited_row_product)
    monkeypatch.setattr(ring, "exact_divide_cyclo", audited_divide)
    monkeypatch.setattr(ring, "_packed_sum", counted_packed_sum)
    monkeypatch.setattr(ring, "_cleared_sum", audited_cleared_sum)
    monkeypatch.setattr(ring.LaurentPoly, "adams", audited_adams)
    monkeypatch.setattr(ring.ImagePoly, "adams", audited_image_adams)
    clear()
    yield seen
    clear()


# the branches each run must take: the bivariate runs those of the dict numerators,
# the u = v image those of the rows
SPARSE = ("keys or dict", "shift", "kronecker", "packed sum", "dict sum")
IMAGE = ("row slices", "row kronecker", "row sum", "packed row sum")


@pytest.mark.parametrize("run, paths", [
    (lambda: ih_poincare(3, 6, 1), SPARSE),
    (lambda: hdt(2, 8, 0), SPARSE),  # non-coprime: Adams images and divisions by several factors
    (lambda: betti_numbers(2, 10, 0), IMAGE),
], ids=["ih_poincare-3-6-1", "hdt-2-8-0", "betti_numbers-2-10-0"])
def test_pipeline_products_and_divisions_hold_modulo_a_prime(audit, run, paths):
    run()
    assert [p for p in paths if not audit[p]] == []
    assert audit["division factors"] > audit["division"] > 0  # some division has several factors
    if paths is IMAGE:  # every sum of the image runs on rows
        assert not (audit["packed sum"] or audit["dict sum"])


def test_the_u_equals_v_pipeline_takes_adams_images(audit):
    # the Log on the u = v image runs ImagePoly.adams; the bivariate path runs SymPoly's
    betti_numbers(2, 10, 0)
    assert audit["image adams"] > 0 and audit["adams"] == 0
