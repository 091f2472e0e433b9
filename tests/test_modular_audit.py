"""Modular audit of every product and division a real pipeline run makes.

The fixture wraps ``ring._product`` and ``ring.exact_divide_cyclo``.  Each
product c = a * b is checked as value(c) = value(a) * value(b), and each
division q = p / prod (1 - L^k) as value(q) * prod (1 - value(L^k)) =
value(p), all at one seeded random point modulo 2^61 - 1 (``evalref``).
Where ``polyref`` checks the kernel on chosen operands, this checks it on
the operands the pipeline itself builds, at every path and slot width it
takes.  Each ``_pack`` call inside a product tells its path: none on the
key and dict loops, one for a shift-add, two for a Kronecker product.
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

    def clear():
        for cached in vars(invariants).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()

    monkeypatch.setattr(ring, "_pack", counted_pack)
    monkeypatch.setattr(ring, "_product", audited_product)
    monkeypatch.setattr(ring, "exact_divide_cyclo", audited_divide)
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
