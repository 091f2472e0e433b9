"""Betti numbers of coprime classes against the Harder-Narasimhan recursion.

``hnref`` computes the Poincare polynomial of M(r,d), gcd(r, d) = 1, from
the Atiyah-Bott stratification with int-only truncated series in t.  It
shares no code with curvedt, whose Betti numbers come from the
plethystic logarithm of composition sums, so agreement beyond the golden
tables (rank 4) is an independent check of the whole pipeline.
"""

import ast
from math import gcd
from pathlib import Path

import pytest

import hnref
from curvedt.invariants import betti_numbers, ih_poincare

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


def test_oracle_imports_nothing_from_curvedt():
    tree = ast.parse(Path(hnref.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [m for m in modules if m.split(".")[0] == "curvedt"]
