"""Differential test: the smallness certificate against the reference loop.

``strataref.certify_records`` keeps the certificate as it stood before
its per-type loop was tuned.  For every class with genus 0..5, rank up
to 9 and degree -2r..6r, with the curve bound and the generic bound,
both must give the same records (stratum, codimension, bound,
maximality, verdict), the same d0 and the same theorem-range flag, or
both raise ``VerificationError`` with the same message, which the
library prefixes with the class.  Genus 0 and 1 are in the sweep: a class
outside the moduli domain of ``check_domain`` (rank 2 and above at genus
0, gcd(r, d) != 1 at genus 0 and 1) raises its ``DomainError`` instead,
and (0, 1, -1) still reaches the framing check.  A second test compares a
few classes of benchmark size (ranks 16 to 20, up to 14,750 types), where
the per-part table is reused most.
"""

from fractions import Fraction

import pytest
import strataref as ref
from curvedt.invariants import VerificationError, check_domain
from curvedt.ring import DomainError
from curvedt.strata import certify_virtual_smallness


def _classes():
    for g in range(6):
        for r in range(1, 10):
            for d in range(-2 * r, 6 * r + 1):
                yield g, r, d


def _outcome(certify, g, r, d, generic):
    try:
        return certify(g, r, d, generic), None
    except (DomainError, VerificationError) as exc:
        return None, exc


def _domain_error(g, r, d):
    try:
        check_domain(g, r, d, moduli=True)
    except DomainError as exc:
        return exc
    return None


def test_certificate_matches_reference_on_every_small_class():
    errors = outside = 0
    for g, r, d in _classes():
        domain_err = _domain_error(g, r, d)
        outside += domain_err is not None
        for generic in (False, True):
            where = (g, r, d, generic)
            rep, err = _outcome(certify_virtual_smallness, g, r, d, generic)
            if domain_err is not None:
                assert type(err) is DomainError and str(err) == str(domain_err), where
                continue
            want, want_err = _outcome(ref.certify_records, g, r, d, generic)
            if want_err is not None:
                errors += 1
                assert type(err) is VerificationError, where
                assert str(err) == f"class (g, r, d) = ({g}, {r}, {d}): {want_err}", where
                continue
            assert err is None, where
            records, d0, in_range = want
            assert (rep.d0, rep.in_theorem_range) == (d0, in_range), where
            assert [
                (rec.stratum.parts, rec.codim, rec.bound, rec.stratum.is_maximal, rec.passes)
                for rec in rep.records
            ] == [
                (rec.stratum.parts, rec.codim, rec.bound, rec.is_maximal, rec.passes)
                for rec in records
            ], where
            assert all(type(rec.bound) is Fraction for rec in rep.records), where
    assert errors == 2 and outside > 0  # (0, 1, -1), in both bound modes


@pytest.mark.parametrize(
    "g, r, d, generic",
    [
        (3, 20, 140, False),  # the strata_wide shape: 14,750 types
        (2, 16, 48, False),
        (2, 16, 48, True),
        (4, 18, 162, False),
        (4, 18, 162, True),
    ],
)
def test_certificate_matches_reference_at_benchmark_scale(g, r, d, generic):
    records, d0, in_range = ref.certify_records(g, r, d, generic)
    rep = certify_virtual_smallness(g, r, d, generic)
    assert (rep.d0, rep.in_theorem_range) == (d0, in_range) and in_range
    assert [
        (rec.stratum.parts, rec.codim, rec.bound, rec.stratum.is_maximal, rec.passes)
        for rec in rep.records
    ] == [
        (rec.stratum.parts, rec.codim, rec.bound, rec.is_maximal, rec.passes)
        for rec in records
    ]
    assert rep.passes
