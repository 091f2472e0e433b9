"""A failing check keeps its result text.

The golden-table checks share one prefix loop and the identity checks
share one "holds for every case" loop; the FAIL details below are the
texts each check printed when it had its own loop.  Each check's inputs
are replaced through the verify module, where the checks look them up.
"""

import pytest

from curvedt import verify


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
