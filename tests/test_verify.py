"""A failing check keeps its result text.

Every check runs its cases through one loop; the FAIL details below are
the texts each check printed when it had its own loop.  A case that
raises is a FAIL text of its check (a WARN in the exploratory one), and
the suite runs on.  Each check's inputs
are replaced through the verify module, where the checks look them up.
"""

import json

import pytest

from curvedt import verify
from curvedt.cli import main
from curvedt.invariants import VerificationError
from curvedt.ring import DomainError, NotDivisibleError


@pytest.mark.parametrize("check, helper, name, detail", [
    (verify.check_closed_forms, "ih_closed_form_check", "closed-forms",
     "g=2 M(2,0) closed form mismatch; g=2 M(2,1) closed form mismatch; "
     "g=3 M(2,0) closed form mismatch; g=3 M(2,1) closed form mismatch"),
    (verify.check_q_rank_closed_forms, "q_rank_closed_form_check", "q-rank-closed-forms",
     "g=2 r=1 building-block mismatch; g=2 r=2 building-block mismatch; "
     "g=3 r=1 building-block mismatch; g=3 r=2 building-block mismatch"),
    (verify.check_resolutions, "resolution_check", "composition-resolutions",
     "resolution (1,0) mismatch; resolution (2,0) mismatch; resolution (2,1) mismatch"),
])
def test_a_failing_identity_names_every_case(monkeypatch, check, helper, name, detail):
    monkeypatch.setattr(verify, helper, lambda *case: False)
    assert check(2) == verify.CheckResult(name, "FAIL", detail)


@pytest.mark.parametrize("check, name, detail", [
    (verify.check_betti_tables, "betti-tables",
     "g=2 M(2,0): [1, 4, 7, 12, 24, 32] != [1, 4, 7, 8, 8, 8]; "
     "g=2 M(2,1): [1, 4, 7, 8, 8, 8] != [1, 4, 7, 12, 24, 32]"),
    (verify.check_detfactor_tables, "detfactor-tables",
     "g=2 M(2,0): [1, 0, 1, 4] != [1, 0, 1, 0]; g=2 M(2,1): [1, 0, 1, 0] != [1, 0, 1, 4]; "
     "g=3 M(2,0): [1, 0, 1, 6, 2, 6, 16] != [1, 0, 1, 6, 1, 6, 2]; "
     "g=3 M(2,1): [1, 0, 1, 6, 1, 6, 2] != [1, 0, 1, 6, 2, 6, 16]"),
])
def test_a_wrong_golden_row_shows_both_prefixes(monkeypatch, check, name, detail):
    # the Betti numbers of the other degree mod 2: valid, but not this row's
    real = verify.ih_poincare
    monkeypatch.setattr(verify, "ih_poincare", lambda g, r, d: real(g, r, (d + 1) % r))
    assert check(2) == verify.CheckResult(name, "FAIL", detail)


def test_passing_checks_keep_their_details():
    assert [(res.name, res.status, res.detail) for res in verify.run_suite(rmax=2)[:5]] == [
        ("betti-tables", "PASS", "2 golden rows matched"),
        ("detfactor-tables", "PASS", "4 golden rows matched"),
        ("closed-forms", "PASS", "4 identities verified"),
        ("q-rank-closed-forms", "PASS", "4 identities verified"),
        ("composition-resolutions", "PASS", "3 resolutions verified"),
    ]


def fails_at_2_2_1(monkeypatch):
    """verify.ih_poincare, raising the kernel's error for the class (2, 2, 1) only."""
    real = verify.ih_poincare

    def ih_poincare(g, r, d):
        if (g, r, d) == (2, 2, 1):
            raise NotDivisibleError("class (g, r, d) = (2, 2, 1), integrality of HDT: "
                                    "not divisible by 1 - L^3")
        return real(g, r, d)

    monkeypatch.setattr(verify, "ih_poincare", ih_poincare)


def test_a_case_that_raises_fails_its_check_only(monkeypatch):
    fails_at_2_2_1(monkeypatch)
    results = verify.run_suite(rmax=2)
    assert len(results) == 12
    error = ("NotDivisibleError: class (g, r, d) = (2, 2, 1), integrality of HDT: "
             "not divisible by 1 - L^3")
    assert [(res.name, res.detail) for res in results if not res.ok] == [
        ("betti-tables", f"g=2 M(2,1): {error}"),
        ("detfactor-tables", f"g=2 M(2,1): {error}"),
        ("dt-corollaries", f"g=2 (2,1): {error}"),
    ]


def test_verify_json_reports_every_check_when_a_case_raises(monkeypatch, capsys):
    fails_at_2_2_1(monkeypatch)
    code = main(["verify", "--quick", "--json"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert (code, err) == (1, "")
    assert report["verdict"] == "FAIL" and len(report["checks"]) == 12
    assert [c["name"] for c in report["checks"] if c["status"] == "FAIL"] == [
        "betti-tables", "detfactor-tables", "dt-corollaries"]


def test_a_raising_identity_names_the_case_and_the_error(monkeypatch):
    def resolution_check(r, d):
        if d:
            raise DomainError(f"no resolution of ({r},{d})")
        return True

    monkeypatch.setattr(verify, "resolution_check", resolution_check)
    assert verify.check_resolutions(2) == verify.CheckResult(
        "composition-resolutions", "FAIL", "resolution (2,1): DomainError: no resolution of (2,1)")


def test_the_exploratory_check_warns_on_a_case_error_only(monkeypatch):
    def hdt(g, r, d):
        raise NotDivisibleError("not divisible by 1 - L^2")

    monkeypatch.setattr(verify, "hdt", hdt)
    res = verify.check_elliptic()
    assert res.status == "WARN" and res.detail.startswith("(1,0): NotDivisibleError; (2,0): ")

    def buggy(g, r, d):
        raise TypeError("a bug, not a mismatch")

    monkeypatch.setattr(verify, "hdt", buggy)
    with pytest.raises(TypeError):
        verify.check_elliptic()


def test_a_plain_value_error_in_a_check_is_a_bug_and_propagates(monkeypatch):
    # a builtin ValueError is no domain error of the library: a bad unpacking in
    # a check's own code must end the suite, not read as a FAIL of every case
    def resolution_check(r, d):
        a, b, c = (r, d)

    monkeypatch.setattr(verify, "resolution_check", resolution_check)
    with pytest.raises(ValueError, match="not enough values to unpack") as info:
        verify.run_suite(rmax=2)
    assert not isinstance(info.value, DomainError)


def raising(real, exc, when):
    """real, raising exc instead on the arguments that `when` accepts."""
    def stand_in(*args, **kwargs):
        if when(*args):
            raise exc
        return real(*args, **kwargs)

    return stand_in


ROUND_TRIPS = "; ".join(f"trial {t}: NotDivisibleError: not divisible by 1 - L^2"
                        for t in range(20))


@pytest.mark.parametrize("check, helper, exc, when, name, detail", [
    (verify.check_plethystic_inverse, "pleth_exp", NotDivisibleError("not divisible by 1 - L^2"),
     lambda f: True, "plethystic-inverse", ROUND_TRIPS),
    (verify.check_log_coefficients, "pleth_log", VerificationError("Log failed"),
     lambda e: True, "log-coefficient-formulas",
     "trial 0: VerificationError: Log failed; trial 1: VerificationError: Log failed; "
     "trial 2: VerificationError: Log failed"),
    (verify.check_zeta_is_exp, "zeta_series", DomainError("no zeta series"),
     lambda g, rmax: g == 3, "zeta-is-exp", "g=3: DomainError: no zeta series"),
    (verify.check_torsion, "torsion_dt", NotDivisibleError("not divisible by 1 - L^2"),
     lambda g, dmax: g == 3, "torsion", "g=3: NotDivisibleError: not divisible by 1 - L^2"),
    (verify.check_strata, "certify_virtual_smallness", DomainError("no certificate"),
     lambda g, r, d: (g, r, d) == (3, 2, 10), "strata-certificates",
     "g=3 (2,10) generic=False: DomainError: no certificate; "
     "g=3 (2,10) generic=True: DomainError: no certificate"),
], ids=["plethystic-inverse", "log-coefficient-formulas", "zeta-is-exp", "torsion", "strata"])
def test_a_raising_case_of_a_property_check_is_its_fail_text(monkeypatch, check, helper, exc,
                                                            when, name, detail):
    monkeypatch.setattr(verify, helper, raising(getattr(verify, helper), exc, when))
    assert check() == verify.CheckResult(name, "FAIL", detail)


@pytest.mark.parametrize("helper, exc, failed", [
    ("certify_virtual_smallness", DomainError("no certificate"), ["strata-certificates"]),
    ("pleth_exp", NotDivisibleError("not divisible by 1 - L^2"),
     ["plethystic-inverse", "zeta-is-exp"]),
    ("zeta_series", DomainError("no zeta series"), ["zeta-is-exp"]),
    ("torsion_dt", NotDivisibleError("not divisible by 1 - L^2"), ["torsion"]),
], ids=["certify_virtual_smallness", "pleth_exp", "zeta_series", "torsion_dt"])
def test_verify_json_reports_every_check_when_a_property_case_raises(
        monkeypatch, capsys, helper, exc, failed):
    monkeypatch.setattr(verify, helper, raising(getattr(verify, helper), exc, lambda *a: True))
    code = main(["verify", "--quick", "--json"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert (code, err) == (1, "")
    assert report["verdict"] == "FAIL" and len(report["checks"]) == 12
    assert [c["name"] for c in report["checks"] if c["status"] == "FAIL"] == failed


def test_a_certificate_outside_the_theorem_range_says_so(monkeypatch):
    real = verify.certify_virtual_smallness

    def certify(g, r, d, generic):
        rep = real(g, r, d, generic=generic)
        return rep._replace(in_theorem_range=(g, r, d, generic) != (2, 1, 3, False))

    monkeypatch.setattr(verify, "certify_virtual_smallness", certify)
    assert verify.check_strata() == verify.CheckResult(
        "strata-certificates", "FAIL", "g=2 (1,3) generic=False: outside the theorem range d/r > 2g-2")


def test_the_log_formulas_read_every_coefficient_of_one_log(monkeypatch):
    # a wrong t^3 coefficient only where the Log runs on past t^3, as a bug in
    # the branch of pleth_log that keeps P_3 for the higher orders would give
    real = verify.pleth_log

    def pleth_log(e):
        b = real(e)
        return b[:3] + (b[3] + b[0].one(),) + b[4:] if len(e) > 4 else b

    monkeypatch.setattr(verify, "pleth_log", pleth_log)
    assert verify.check_log_coefficients() == verify.CheckResult(
        "log-coefficient-formulas", "FAIL",
        "trial 0: b3 formula mismatch; trial 1: b3 formula mismatch; trial 2: b3 formula mismatch")


def test_both_round_trips_of_a_trial_share_its_fail_text(monkeypatch):
    monkeypatch.setattr(verify, "pleth_exp", lambda f: f)
    monkeypatch.setattr(verify, "pleth_log", lambda e: tuple(c + c.one() for c in e))
    res = verify.check_plethystic_inverse()
    assert res.status == "FAIL"
    assert res.detail.split("; ")[0] == "trial 0: Log(Exp(f)) != f, Exp(Log(g)) != g"
