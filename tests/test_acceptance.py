"""Acceptance gate: one test, and one pass/fail line under -v, per criterion.

Every comparison is exact (integers and rationals; tolerance zero).
The golden rows are frozen literals here, independent of the copies the
verify module embeds; two rows that common transcriptions garble are
additionally pinned by in-scope identities:

* genus 2, M(3,1): the half row is 1,4,7,12,26,48,76,112,157,...  It is
  forced by three facts asserted below: the coprime space is smooth
  with b_1 = 2g = 4; the fixed-determinant factor 1,0,1,4,3,8,9,12,20
  times (1+y)^(2g) reconstructs it; and the closed rational formula
  (criterion 3) agrees.  The sequence 1,6,16,32,... sometimes quoted
  for this space is its genus-3 row, also asserted below.
* genus 3, M(4,0): the half fixed-determinant row ends ...,11808,11978;
  the closed formula pins the final coefficient (11976 fails it).
"""

import random
import time
import warnings
from fractions import Fraction
from math import gcd

import polyref as ref
from curvedt.closedforms import (
    CLOSED_FORM_CLASSES,
    ih_closed_form_check,
    q_rank_closed_form_check,
    resolution_check,
)
from curvedt.invariants import (
    composition_prefactors,
    curve_epoly,
    determinant_factor,
    dim_moduli,
    hdt,
    ih_poincare,
    torsion_dt,
)
from curvedt.ring import UniPoly, half_lefschetz, specialize_elem, specialize_y
from curvedt.strata import (
    build_fiber_quiver,
    certify_virtual_smallness,
    enumerate_strata,
    smallness_bound,
)
from curvedt.verify import (
    GOLDEN_BETTI,
    GOLDEN_DETFACTOR,
    check_log_coefficients,
    check_plethystic_inverse,
    check_zeta_is_exp,
)

BETTI_G2 = {
    (2, 0): [1, 4, 7, 8, 8, 8],
    (2, 1): [1, 4, 7, 12, 24, 32],
    (3, 0): [1, 4, 7, 12, 25, 40, 47, 48, 49, 52, 54],
    (3, 1): [1, 4, 7, 12, 26, 48, 76, 112, 157],
    (4, 0): [1, 4, 7, 12, 26, 48, 77, 120, 181, 256, 331, 392, 435, 464, 486,
             500, 504, 504],
    (4, 1): [1, 4, 7, 12, 26, 48, 78, 128, 211, 328, 476, 680, 963, 1292,
             1621, 1948, 2249, 2384],
    (4, 2): [1, 4, 7, 12, 26, 48, 78, 128, 211, 332, 491, 696, 950, 1232,
             1506, 1724, 1850, 1888],
}

BETTI_G3_M31_PREFIX = [1, 6, 16, 32, 69, 146, 272, 474, 809]

DETFACTOR_G2 = {
    (2, 0): [1, 0, 1, 0],
    (2, 1): [1, 0, 1, 4],
    (3, 0): [1, 0, 1, 4, 2, 4, 2, 4, 3],
    (3, 1): [1, 0, 1, 4, 3, 8, 9, 12, 20],
    (4, 0): [1, 0, 1, 4, 3, 8, 10, 16, 22, 24, 29, 28, 31, 32, 31, 32],
    (4, 1): [1, 0, 1, 4, 3, 8, 11, 20, 30, 36, 61, 80, 103, 120, 142, 168],
    (4, 2): [1, 0, 1, 4, 3, 8, 11, 20, 30, 40, 60, 76, 96, 112, 118, 120],
}

DETFACTOR_G3 = {
    (2, 0): [1, 0, 1, 6, 1, 6, 2],
    (2, 1): [1, 0, 1, 6, 2, 6, 16],
    (3, 0): [1, 0, 1, 6, 3, 12, 19, 24, 57, 56, 88, 138, 127, 170, 156, 176,
             179],
    (3, 1): [1, 0, 1, 6, 3, 12, 19, 24, 58, 62, 104, 170, 194, 292, 344, 394,
             472],
    (4, 0): [1, 0, 1, 6, 3, 12, 20, 30, 60, 74, 145, 212, 306, 486, 667, 1018,
             1365, 1888, 2610, 3352, 4397, 5408, 6636, 7862, 8852, 9880,
             10556, 11212, 11640, 11808, 11978],
    (4, 1): [1, 0, 1, 6, 3, 12, 20, 30, 60, 74, 145, 212, 307, 492, 683, 1050,
             1435, 2034, 2897, 3838, 5260, 6884, 9039, 11568, 14288, 17708,
             21031, 24320, 27046, 29052, 30128],
    (4, 2): [1, 0, 1, 6, 3, 12, 20, 30, 60, 74, 145, 212, 307, 492, 684, 1056,
             1449, 2060, 2934, 3934, 5393, 7052, 9240, 11766, 14454, 17562,
             20472, 23256, 25437, 26696, 27216],
}


def test_criterion_1_golden_betti_tables_genus_two():
    t0 = time.monotonic()
    for (r, d), want in sorted(BETTI_G2.items()):
        got = list(ih_poincare(2, r, d).betti[: len(want)])
        assert got == want, f"M({r},{d}): {got} != {want}"
    # M(3,1) pinning: smooth coprime space has b_1 = 2g = 4
    assert BETTI_G2[(3, 1)][1] == 4
    # fixed-determinant reconstruction: B(y) = factor(y) * (1+y)^(2g)
    res = ih_poincare(2, 3, 1)
    factor = determinant_factor(2, res.betti)
    b_poly = UniPoly({2 * k: Fraction(b) for k, b in enumerate(res.betti)})
    f_poly = UniPoly({2 * k: Fraction(c) for k, c in enumerate(factor)})
    one_plus_y = UniPoly({0: Fraction(1), 2: Fraction(1)})
    assert b_poly == f_poly * one_plus_y ** 4
    # the 1,6,16,... sequence is this space's genus-3 row
    got_g3 = list(ih_poincare(3, 3, 1).betti[: len(BETTI_G3_M31_PREFIX)])
    assert got_g3 == BETTI_G3_M31_PREFIX
    # frozen copies in the verify registry must agree with these literals
    assert {k: v for k, v in GOLDEN_BETTI[2].items()} == BETTI_G2
    assert GOLDEN_BETTI[3][(3, 1)][:9] == BETTI_G3_M31_PREFIX
    assert time.monotonic() - t0 < 60.0


def test_criterion_2_golden_detfactor_tables():
    t0 = time.monotonic()
    for g, table in ((2, DETFACTOR_G2), (3, DETFACTOR_G3)):
        for (r, d), want in sorted(table.items()):
            res = ih_poincare(g, r, d)
            got = determinant_factor(g, res.betti)[: len(want)]
            assert got == want, f"g={g} M({r},{d}): {got} != {want}"
    # the corrected genus-3 M(4,0) center 11978 is pinned by the closed form
    assert ih_closed_form_check(3, 4, 0)
    assert GOLDEN_DETFACTOR[2] == DETFACTOR_G2
    assert GOLDEN_DETFACTOR[3] == DETFACTOR_G3
    assert time.monotonic() - t0 < 600.0


def test_criterion_3_closed_form_cross_checks():
    for g in (2, 3):
        for (r, d) in CLOSED_FORM_CLASSES:
            assert ih_closed_form_check(g, r, d), f"g={g} M({r},{d})"
    for g in (2, 3):
        for r in (1, 2, 3, 4):
            assert q_rank_closed_form_check(g, r), f"g={g} r={r}"


def test_criterion_4_composition_resolutions():
    for (r, d) in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1), (4, 2)]:
        assert resolution_check(r, d), f"({r},{d})"
    # the named coefficient: Q_1^2 Q_2 of Q_{4,1} is y^4 (1+y^2)^2/(1-y^6)^2
    num, den = specialize_elem(composition_prefactors(4, 1)[(1, 1, 2)])
    want_num = UniPoly({8: 1}) * (UniPoly.one() + UniPoly({4: 1})) ** 2
    want_den = (UniPoly.one() - UniPoly({12: 1})) ** 2
    assert num * want_den == want_num * den


def test_criterion_5_lambda_ring_suite():
    res = check_plethystic_inverse()
    assert res.status == "PASS", res.detail
    res = check_log_coefficients()
    assert res.status == "PASS", res.detail
    res = check_zeta_is_exp()
    assert res.status == "PASS", res.detail


def test_criterion_6_main_corollary_suite_rank_five():
    for g in (2, 3):
        for r in range(1, 6):
            for d in range(r):
                h = hdt(g, r, d)  # construction enforces integrality
                assert h.dual() == h, f"g={g} ({r},{d}) not self-dual"
                neg = ref.at_neg_y(specialize_y(h).terms)
                assert all(
                    c >= 0 and c.denominator == 1 for c in neg.values()
                ), f"g={g} ({r},{d}) positivity"
                betti = ih_poincare(g, r, d).betti
                dim = dim_moduli(g, r)
                assert len(betti) == 2 * dim + 1
                assert betti[0] == 1 and betti[-1] == 1
                assert list(betti) == list(reversed(betti))


def test_criterion_7_torsion_invariants():
    for g in (2, 3, 4):
        vals = torsion_dt(g, 6)
        assert vals[1] == curve_epoly(g) * half_lefschetz(-1), f"g={g} d=1"
        for d in range(2, 7):
            assert vals[d].is_zero(), f"g={g} d={d}"


def test_criterion_8_strata_certification_rank_six():
    for g in (2, 3):
        for r in range(1, 7):
            base = r * (2 * g - 2) + 1
            for d in range(base, base + r):
                rep = certify_virtual_smallness(g, r, d)
                assert rep.in_theorem_range
                assert rep.passes, f"g={g} ({r},{d})"
                for rec in rep.records:
                    assert rec.codim >= 0
                    assert (rec.codim == 0) == rec.stratum.is_maximal
                    if rec.stratum.is_maximal:
                        assert rec.bound == 0
                    else:
                        assert rec.bound < 0
                # the generic estimate must certify the same classes
                assert certify_virtual_smallness(g, r, d, generic=True).passes


def test_criterion_9_elliptic_exploratory():
    """Expected pass; any mismatch demotes to a warning, not a failure."""
    expect = curve_epoly(1) * half_lefschetz(-1)
    mismatches = []
    for r in (1, 2, 3):
        for d in range(r):
            try:
                h = hdt(1, r, d)
            except Exception as exc:
                mismatches.append(f"({r},{d}): {type(exc).__name__}")
                continue
            if gcd(r, d) == 1:
                if h != expect:
                    mismatches.append(f"({r},{d}): != E(X)/L^(1/2)")
            elif not h.is_zero():
                mismatches.append(f"({r},{d}): != 0")
    if mismatches:
        warnings.warn(
            "genus-1 exploratory values differ from the expected remark: "
            + "; ".join(mismatches)
        )
