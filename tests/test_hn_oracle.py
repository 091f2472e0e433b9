"""curvedt against the Harder-Narasimhan recursion.

``hnref`` computes the Poincare polynomial of M(r,d), gcd(r, d) = 1, from
the Atiyah-Bott stratification with int-only truncated series in t.  It
shares no code with curvedt, whose Betti numbers come from the
plethystic logarithm of composition sums, so agreement beyond the golden
tables (rank 4) is an independent check of the whole pipeline.

The same recursion for motives checks the bivariate path: the
E-polynomial of M(r,d) for coprime classes, and the semistable class
Q_{r,d} itself, which curvedt sums over compositions, for every class.
"""

import ast
from math import gcd
from pathlib import Path

import pytest

import hnref
from curvedt.invariants import betti_numbers, dim_moduli, ih_poincare, q_class

CASES = [(g, r, d) for g in (2, 3) for r in range(1, 6) for d in range(r) if gcd(r, d) == 1]
CASES += [(2, 6, 1), (2, 6, 5), (3, 6, 1), (2, 7, 1), (2, 7, 3), (2, 8, 1), (4, 5, 2), (5, 4, 1)]


@pytest.mark.parametrize("g, r, d", CASES)
def test_betti_numbers_match_the_recursion(g, r, d):
    want = hnref.coprime_betti(g, r, d)
    assert betti_numbers(g, r, d) == want
    if r <= 4:
        assert ih_poincare(g, r, d).betti == want


def test_recursion_reproduces_the_jacobian_and_a_golden_row():
    # M(1, d) is the Jacobian: b_k = C(2g, k)
    assert hnref.coprime_betti(3, 1, 0) == (1, 6, 15, 20, 15, 6, 1)
    assert hnref.coprime_betti(2, 2, 1)[:6] == (1, 4, 7, 12, 24, 32)


def test_recursion_rejects_a_class_that_is_not_coprime():
    with pytest.raises(ValueError):
        hnref.coprime_betti(2, 2, 0)
    with pytest.raises(ValueError):
        hnref.coprime_epoly(2, 2, 0)


def test_bundle_motive_specialises_to_the_gauge_series():
    # B_r at x = y = -t is P_t(BG_r)
    n = 24
    for g in (1, 2, 3):
        for r in range(1, 5):
            image = [0] * (n + 1)
            for (a, b), c in hnref.bundle_series(g, r, n).items():
                image[a + b] += (-1) ** (a + b) * c
            assert image == hnref.gauge_series(g, r, n), (g, r)


@pytest.mark.parametrize("g, r, d", [(2, 2, 1), (2, 3, 1), (3, 2, 1), (2, 4, 1), (3, 3, 1),
                                     (4, 3, 1)])
def test_e_polynomials_match_the_recursion(g, r, d):
    ih = ih_poincare(g, r, d).ih.terms
    assert hnref.coprime_epoly(g, r, d) == {(a // 2, b // 2): c for (a, b), c in ih.items()}


def _q_class_in_xy(g: int, r: int, d: int, n: int) -> dict:
    """q_class(g, r, d) (uv)^(-(g-1) r^2 / 2) in x = 1/u, y = 1/v, up to total
    degree n, by 1/(1 - L^k) = -L^(-k) sum_m L^(-km) with L^(-1) = xy."""
    q = q_class(g, r, d)
    shift, lift = (g - 1) * r * r, sum(q.den.factors)
    sign = (-1) ** len(q.den.factors)
    num = {}
    for (a2, b2), c in q.num.to_laurent().terms.items():  # doubled exponents of u and v
        assert (shift - a2) % 2 == 0 and (shift - b2) % 2 == 0
        num[(lift + (shift - a2) // 2, lift + (shift - b2) // 2)] = sign * c
    geometric = [1] + [0] * ((n - min(i + j for i, j in num)) // 2)  # 1/prod (1 - (xy)^k)
    for k in q.den.factors:
        for m in range(k, len(geometric)):
            geometric[m] += geometric[m - k]
    out = {}
    for (i, j), c in num.items():
        for m in range(max(0, (n - i - j) // 2 + 1)):
            out[(i + m, j + m)] = out.get((i + m, j + m), 0) + c * geometric[m]
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize("g, r, d", [(2, 2, 0), (2, 3, 0), (2, 4, 2), (3, 2, 0), (3, 3, 0),
                                     (4, 2, 0), (4, 3, 0)])
def test_q_class_matches_the_recursion_on_every_class(g, r, d):
    # the sign is L^(1/2) = -(uv)^(1/2) in the L^((1-g) r^2 / 2) of Q_r
    n = 2 * dim_moduli(g, r)
    sign = (-1) ** ((g - 1) * r * r)
    want = {key: sign * c for key, c in hnref.semistable_xy(g, r, d, n).items()}
    assert _q_class_in_xy(g, r, d, n) == want


def test_oracle_imports_nothing_from_curvedt():
    tree = ast.parse(Path(hnref.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [m for m in modules if m.split(".")[0] == "curvedt"]
