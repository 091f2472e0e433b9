"""Closed-form identities: Poincare, building block, resolutions.

The rank-2 degree-1 closed form was expanded by hand at genus 2 to
1 - 4y + 7y^2 - 12y^3 + 24y^4 - ... before wiring the comparison, so a
sign slip in the signed-polynomial convention would be caught here even
if both sides of the automated identity were wrong the same way.
"""

from fractions import Fraction

import pytest

from curvedt.closedforms import (
    CLOSED_FORM_CLASSES,
    ih_closed_form_check,
    poincare_closed_form,
    q_rank_closed_form_check,
    resolution_check,
    resolution_table,
)
from curvedt.invariants import composition_prefactors
from curvedt.ring import UniPoly, specialize_elem


def test_closed_form_class_list():
    assert CLOSED_FORM_CLASSES == ((2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2))


def test_m21_expansion_starts_like_signed_poincare():
    num, den = poincare_closed_form(2, 2, 1)
    # num = den * (1 - 4y + 7y^2 - 12y^3 + 24y^4 - ...): check low orders
    signed_prefix = UniPoly(
        {0: Fraction(1), 2: Fraction(-4), 4: Fraction(7), 6: Fraction(-12), 8: Fraction(24)}
    )
    diff = num - signed_prefix * den
    assert all(e2 >= 9 for e2 in diff.terms), sorted(diff.terms)


def test_ih_closed_forms_genus_two():
    for (r, d) in CLOSED_FORM_CLASSES:
        assert ih_closed_form_check(2, r, d)


def test_degree_is_reduced_mod_rank():
    assert ih_closed_form_check(2, 2, 3)
    num_a, den_a = poincare_closed_form(2, 2, 7)
    num_b, den_b = poincare_closed_form(2, 2, 1)
    assert num_a == num_b and den_a == den_b


def test_unsupported_class_raises():
    with pytest.raises(ValueError):
        poincare_closed_form(2, 5, 0)
    with pytest.raises(ValueError):
        resolution_table(5, 0)


def test_q_rank_closed_forms():
    for g in (2, 3):
        for r in (1, 2, 3, 4):
            assert q_rank_closed_form_check(g, r)


def test_resolution_checks():
    for (r, d) in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2)]:
        assert resolution_check(r, d)


def test_resolution_specific_coefficient():
    # coefficient of Q_1^2 Q_2 in Q_{4,1} is y^4 (1+y^2)^2 / (1-y^6)^2
    num, den = specialize_elem(composition_prefactors(4, 1)[(1, 1, 2)])
    y2 = UniPoly({4: 1})
    want_num = UniPoly({8: 1}) * (UniPoly.one() + y2) ** 2
    want_den = (UniPoly.one() - UniPoly({12: 1})) ** 2
    assert num * want_den == want_num * den


def test_resolution_table_rejects_wrong_groups():
    # sanity of the checker itself: a perturbed table entry must fail
    table = resolution_table(2, 1)
    num, den = table[(1, 1)]
    groups = composition_prefactors(2, 1)
    num_c, den_c = specialize_elem(groups[(1, 1)])
    assert num_c * den == num * den_c
    assert not num_c * den == (num + UniPoly.one()) * den_c
