"""Modular audit of every product and division a real pipeline run makes.

The fixture wraps ``ring._product``, ``ring.exact_divide_cyclo``,
``ring._cleared_sum`` and ``LaurentPoly.adams``.  Each product c = a * b
is checked as value(c) = value(a) * value(b), each division
q = p / prod (1 - L^k) as value(q) * prod (1 - value(L^k)) = value(p),
each cleared sum (N, D, lcd) of items num_i / den_i with signs as
value(N) = sum sign_i * (D / scale_i) * value(num_i) * prod (1 - value(L^k))
over the factors of lcd missing from den_i, and each Adams image as
value(psi_n a) at (X, Y) = value(a) at (X^n, Y^n), all at one seeded
random point modulo 2^61 - 1 (``evalref``).
Where ``polyref`` checks the kernel on chosen operands, this checks it on
the operands the pipeline itself builds, at every path and slot width it
takes.  Each ``_pack`` call inside a product tells its path: none on the
key and dict loops, one for a shift-add, two for a Kronecker product; a
cleared sum takes the packed branch when ``_packed_sum`` returns a dict,
else the dict branch.
"""

from collections import Counter

import pytest

from curvedt import invariants, ring
from curvedt.invariants import betti_numbers, hdt, ih_poincare
from evalref import P, Point

PATHS = ("keys or dict", "shift", "kronecker")


@pytest.fixture
def audit(monkeypatch):
    """Counter of the audited products by path and of the divisions, every
    pipeline cache cleared before and after."""
    point = Point(20151215)
    seen = Counter()
    packs = []
    pack, product, divide = ring._pack, ring._product, ring.exact_divide_cyclo
    cleared_sum, packed_sum, adams = ring._cleared_sum, ring._packed_sum, ring.LaurentPoly.adams

    def counted_pack(*args):
        packs.append(None)
        return pack(*args)

    def audited_product(a, b, columns, from_columns):
        before = len(packs)
        c = product(a, b, columns, from_columns)
        seen[PATHS[len(packs) - before]] += 1
        assert point(c) == point(a) * point(b) % P
        return c

    def audited_divide(p, *ks):
        q = divide(p, *ks)
        seen["division"] += 1
        seen["division factors"] += len(ks)
        assert q._scale == p._scale
        value = point(q._ints)
        for k in ks:
            value = value * point.one_minus_lefschetz(k) % P
        assert value == point(p._ints)
        return q

    def counted_packed_sum(*args):
        out = packed_sum(*args)
        seen["packed sum" if out is not None else "dict sum"] += 1
        return out

    def audited_cleared_sum(items, signs):
        signs = list(signs)
        total, den, lcd = cleared_sum(items, signs)
        want = 0
        for x, sign in zip(items, signs):
            value = sign * (den // x.num._scale) * point(x.num._ints)
            for k in lcd.diff(x.den):
                value = value * point.one_minus_lefschetz(k) % P
            want += value
        assert point(total) == want % P
        return total, den, lcd

    def audited_adams(a, n):
        image = adams(a, n)
        seen["adams"] += 1
        at_power = Point(20151215)
        at_power.x, at_power.y = pow(point.x, n, P), pow(point.y, n, P)
        assert image._scale == a._scale and point(image._ints) == at_power(a._ints)
        return image

    def clear():
        for cached in vars(invariants).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()

    monkeypatch.setattr(ring, "_pack", counted_pack)
    monkeypatch.setattr(ring, "_product", audited_product)
    monkeypatch.setattr(ring, "exact_divide_cyclo", audited_divide)
    monkeypatch.setattr(ring, "_packed_sum", counted_packed_sum)
    monkeypatch.setattr(ring, "_cleared_sum", audited_cleared_sum)
    monkeypatch.setattr(ring.LaurentPoly, "adams", audited_adams)
    clear()
    yield seen
    clear()


@pytest.mark.parametrize("run", [
    lambda: ih_poincare(3, 6, 1),
    lambda: hdt(2, 8, 0),  # non-coprime: Adams images and divisions by several factors
    lambda: betti_numbers(2, 10, 0),
], ids=["ih_poincare-3-6-1", "hdt-2-8-0", "betti_numbers-2-10-0"])
def test_pipeline_products_and_divisions_hold_modulo_a_prime(audit, run):
    run()
    assert audit["keys or dict"] and audit["shift"] and audit["kronecker"]
    assert audit["division factors"] > audit["division"] > 0  # some division has several factors
    assert audit["packed sum"] and audit["dict sum"]


def test_the_u_equals_v_pipeline_takes_adams_images(audit):
    # the Log on the u = v image runs LaurentPoly.adams; the bivariate path runs SymPoly's
    betti_numbers(2, 10, 0)
    assert audit["adams"] > 0
