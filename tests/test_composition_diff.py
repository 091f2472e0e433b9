"""The composition sum by dynamic programming, against its enumeration.

``composition_prefactors`` sums composition weights layer by layer of
partial sums, with an integer L-exponent per step.  ``compref`` keeps the
enumeration of all 2^(r-1) compositions with exact ``Fraction``
exponents; the two must agree on every key and value.  The metamorphic
test needs no oracle: a composition sum depends on d only through d mod r,
and reversing the compositions maps degree d to -d.
"""

import pytest

from compref import enumerated_prefactors
from curvedt.invariants import composition_prefactors


def assert_same_prefactors(got, want):
    assert sorted(got) == sorted(want)
    for parts, value in want.items():
        assert got[parts] == value, parts


@pytest.mark.parametrize("r", range(1, 11))
def test_dp_matches_enumeration(r):
    for d in [*range(r), -1, r + 1]:
        assert_same_prefactors(composition_prefactors(r, d), enumerated_prefactors(r, d))


@pytest.mark.parametrize("d", [0, 1, 6])
def test_dp_matches_enumeration_rank_twelve(d):
    assert_same_prefactors(composition_prefactors(12, d), enumerated_prefactors(12, d))


@pytest.mark.parametrize("r", range(1, 10))
def test_prefactors_depend_on_degree_mod_rank_and_sign(r):
    for d in range(r):
        base = composition_prefactors(r, d)
        assert_same_prefactors(composition_prefactors(r, -d), base)
        assert_same_prefactors(composition_prefactors(r, d + r), base)


def test_rank_below_one_is_rejected():
    with pytest.raises(ValueError):
        composition_prefactors(0, 0)
