"""Intersection Hodge numbers read off the bivariate IH polynomial.

M(r,d) is projective, so IH^k(M(r,d)) carries a pure Hodge structure of
weight k, and

    E(IH*) = sum_{p,q} (-1)^(p+q) ih^{p,q} u^p v^q,   every ih^{p,q} >= 0.

The u = v image (the Betti numbers) sums all monomials of one degree, so
it cannot see a wrong split between them; these tests pin the split on
coprime and non-coprime classes: the purity sign, Hodge symmetry
ih^{p,q} = ih^{q,p}, Poincare duality ih^{p,q} = ih^{dim-p,dim-q}, and the
sums over p + q = k, which are the Betti numbers.  They also pin the
observed ih^{p,0} = C(g, p), the Hodge numbers of the Jacobian's
holomorphic forms; no proof is given here, so it is a test only.
"""

from math import comb

import pytest

from curvedt import ih_poincare

# (g, r, d)
PURITY = [(2, 2, 1), (2, 2, 0), (3, 3, 0), (2, 4, 2), (2, 3, 1), (3, 2, 0), (2, 6, 3), (4, 3, 1)]
HOLOMORPHIC = PURITY + [(3, 4, 0), (2, 5, 0)]


def hodge_table(g, r, d):
    """(dim, Betti numbers, {(p, q): signed coefficient of u^p v^q in E(IH*)})."""
    res = ih_poincare(g, r, d)
    assert all(a % 2 == 0 and b % 2 == 0 for a, b in res.ih.terms)
    return res.dim, res.betti, {(a // 2, b // 2): c for (a, b), c in res.ih.terms.items()}


@pytest.mark.parametrize("g, r, d", PURITY)
def test_hodge_numbers_are_pure_symmetric_and_sum_to_betti(g, r, d):
    dim, betti, e = hodge_table(g, r, d)
    ih = {}
    for (p, q), c in e.items():
        assert type(c) is int and 0 <= p <= dim and 0 <= q <= dim
        assert (-1) ** (p + q) * c > 0, f"u^{p} v^{q} has coefficient {c}"
        ih[p, q] = (-1) ** (p + q) * c
    for (p, q), h in ih.items():
        assert ih.get((q, p)) == h
        assert ih.get((dim - p, dim - q)) == h
    sums = [0] * (2 * dim + 1)
    for (p, q), h in ih.items():
        sums[p + q] += h
    assert tuple(sums) == betti


@pytest.mark.parametrize("g, r, d", HOLOMORPHIC)
def test_holomorphic_hodge_numbers_are_binomial(g, r, d):
    _, _, e = hodge_table(g, r, d)
    assert [(-1) ** p * e.get((p, 0), 0) for p in range(g + 2)] == [comb(g, p) for p in range(g + 1)] + [0]
    assert all(p <= g for p, q in e if q == 0)
