"""Stratum enumeration, quiver forms, codimension, smallness bounds.

All numeric oracles were evaluated by hand from the defining formulas
before the module was written: the three types of (2,0) and five of
(3,0); arrow matrix [[2,1],[1,2]] with framing (2,2) for two rank-one
degree-3 parts at genus 2; codimensions 0/1/3 for the (2,0) types; the
bound values 0, -1/2, -3/2; and d0 = d + (1-g) r - 1 spot values.  The
arrow matrix and Euler form are the oracle's (``strataref``), read off
the ranks and framing of the library's quiver.
"""

import json
import warnings
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
import strataref as ref

from curvedt import cli
from curvedt.invariants import VerificationError, check_domain
from curvedt.ring import DomainError
from curvedt.strata import (
    StratumType,
    build_fiber_quiver,
    certify_virtual_smallness,
    enumerate_strata,
    smallness_bound,
)


def stratum(*parts):
    return StratumType(tuple(parts))


def quiver(g, s):
    """The library's quiver of s, with the oracle's arrows and Euler form."""
    return ref.FramedQuiver(*build_fiber_quiver(g, s))


def walk_over(types):
    """A stand-in for ``strata._walk`` over the given types (lists of parts):
    each type with the sums the walk gives it, from its parts' shares."""
    import curvedt.strata as strata

    def walk(g, r, d, generic=False):
        for parts in types:
            s = stratum(*parts)
            shares = [strata._shares(g, part, generic) for part in s.parts]
            rank, drop, twice, _ = (sum(column) for column in zip(*shares))
            yield s, rank, drop, 1 + twice, sum(framing <= 0 for *_, framing in shares)

    return walk


def test_enumerate_coprime_is_single():
    assert [s.parts for s in enumerate_strata(2, 1)] == [((((2, 1)), 1),)]


def test_enumerate_two_zero():
    types = enumerate_strata(2, 0)
    assert [s.parts for s in types] == [
        (((2, 0), 1),),
        (((1, 0), 1), ((1, 0), 1)),
        (((1, 0), 2),),
    ]
    assert types[0].is_maximal and not types[1].is_maximal


def test_enumerate_three_zero():
    labels = {s.label() for s in enumerate_strata(3, 0)}
    assert labels == {
        "1*(3,0)",
        "1*(1,0) + 1*(2,0)",
        "3*(1,0)",
        "1*(1,0) + 2*(1,0)",
        "1*(1,0) + 1*(1,0) + 1*(1,0)",
    }


def test_enumerate_slope_constraint():
    # slope 3/2: parts must be (2k, 3k)
    types = enumerate_strata(4, 6)
    assert {s.label() for s in types} == {
        "1*(4,6)",
        "1*(2,3) + 1*(2,3)",
        "2*(2,3)",
    }


def test_enumerate_rejects_nonpositive_rank():
    with pytest.raises(ValueError):
        enumerate_strata(0, 1)


def test_stratum_type_canonical_sort_and_validation():
    a = stratum(((2, 0), 1), ((1, 0), 2))
    b = stratum(((1, 0), 2), ((2, 0), 1))
    assert a == b and a.parts == (((1, 0), 2), ((2, 0), 1))
    with pytest.raises(ValueError):
        stratum(((0, 1), 1))
    with pytest.raises(ValueError):
        stratum(((1, 1), 0))


def test_repeated_parts_are_distinct_from_merged_multiplicity():
    separate = stratum(((1, 0), 1), ((1, 0), 1))
    merged = stratum(((1, 0), 2))
    assert separate != merged
    assert separate.parts == (((1, 0), 1), ((1, 0), 1)) and merged.parts == (((1, 0), 2),)


def test_fiber_quiver_single_rank_one_part():
    q = quiver(2, stratum(((1, 5), 1)))
    assert q.arrows == ((2,),)
    assert q.framing == (4,)


def test_fiber_quiver_two_parts():
    q = quiver(2, stratum(((1, 3), 1), ((1, 3), 1)))
    assert q.arrows == ((2, 1), (1, 2))
    assert q.framing == (2, 2)


def test_fiber_quiver_symmetry():
    for g in (2, 3):
        for s in enumerate_strata(6, 3):
            q = quiver(g, s)
            assert all(
                q.arrows[i][j] == q.arrows[j][i]
                for i in range(len(s.parts))
                for j in range(len(s.parts))
            )


def test_euler_form_values():
    q = quiver(2, stratum(((1, 3), 1), ((1, 3), 1)))
    assert ref.euler_form(q, (1, 1), (1, 1)) == -4
    assert ref.euler_form(q, (0, 0), (0, 0)) == 0
    with pytest.raises(ValueError):
        ref.euler_form(q, (1,), (1, 1))


def test_euler_form_diagonal_is_minus_weighted_rank_square():
    s = stratum(((2, 6), 1), ((4, 12), 2))
    for g in (2, 3):
        q = quiver(g, s)
        assert ref.euler_form(q, (1, 0), (1, 0)) == -(g - 1) * 4
        assert ref.euler_form(q, (0, 1), (0, 1)) == -(g - 1) * 16


def test_euler_form_matches_rank_pairing():
    # chi_Q(m, m') = (1-g) (sum m_i r_i)(sum m'_j r_j) on equal-slope quivers
    for g in (2, 3):
        for s in enumerate_strata(4, 2):
            q = quiver(g, s)
            m = tuple(range(1, len(s.parts) + 1))
            total = sum(a * b for a, b in zip(m, q.ranks))
            assert ref.euler_form(q, m, m) == (1 - g) * total * total


def test_codim_examples():
    codims = {rec.stratum.label(): rec.codim for rec in certify_virtual_smallness(2, 2, 0).records}
    assert codims == {"1*(2,0)": 0, "1*(1,0) + 1*(1,0)": 1, "2*(1,0)": 3}


def test_d_zero_examples():
    assert certify_virtual_smallness(2, 2, 5).d0 == 2
    assert certify_virtual_smallness(2, 1, 3).d0 == 1
    assert certify_virtual_smallness(3, 1, 5).d0 == 2


def test_smallness_bound_values():
    assert smallness_bound(2, stratum(((2, 0), 1))) == 0
    assert smallness_bound(2, stratum(((1, 0), 2))) == Fraction(-3, 2)
    assert smallness_bound(2, stratum(((1, 0), 1), ((1, 0), 1))) == Fraction(-1, 2)


def test_smallness_bound_generic_variant():
    # generic estimate: 1/2 - (sum of multiplicities)/2
    assert smallness_bound(2, stratum(((2, 0), 1)), generic=True) == 0
    assert smallness_bound(2, stratum(((1, 0), 2)), generic=True) == Fraction(-1, 2)
    assert smallness_bound(
        3, stratum(((1, 0), 2), ((2, 0), 3)), generic=True
    ) == Fraction(1 - 5, 2)


def test_certify_examples_pass():
    for (g, r, d) in [(2, 2, 5), (2, 4, 12), (3, 3, 13)]:
        rep = certify_virtual_smallness(g, r, d)
        assert rep.verdict == "PASS" and rep.in_theorem_range
        assert sum(rec.stratum.is_maximal for rec in rep.records) == 1
        for rec in rep.records:
            assert (rec.codim == 0) == rec.stratum.is_maximal
            assert rec.bound == 0 if rec.stratum.is_maximal else rec.bound < 0


def test_certify_out_of_range_does_not_warn():
    # the report notes the range; the warning line is the CLI's to print
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = [certify_virtual_smallness(2, 2, 1),
                   certify_virtual_smallness(3, 6, -6, generic=True)]
    for rep in reports:
        assert not rep.in_theorem_range
        assert rep.verdict == "PASS"  # arithmetic still certifies


def test_certify_exhaustive_low_rank():
    for g in (2, 3):
        for r in range(1, 7):
            base = r * (2 * g - 2) + 1
            for d in range(base, base + r):
                assert certify_virtual_smallness(g, r, d).passes


def test_report_json_shape():
    from curvedt.strata import stratum_rows

    rep = certify_virtual_smallness(2, 2, 6)
    verdicts = []
    obj = json.loads("".join(cli._strata_chunks(rep[:6], stratum_rows(2, 2, 6), verdicts)))
    assert verdicts == ["PASS"]
    assert list(obj) == ["d0", "degree", "generic", "genus", "in_theorem_range", "rank",
                         "strata", "verdict"]
    assert obj["verdict"] == "PASS" and obj["d0"] == 3
    assert obj["generic"] is False and obj["in_theorem_range"] is True
    assert len(obj["strata"]) == 3
    row = obj["strata"][0]
    assert list(row) == ["bound", "codim", "maximal", "parts", "pass"]
    assert row["parts"] == [[[2, 6], 1]] and row["bound"] == "0"


def _type_counts(tmax):
    """Coefficients of prod_{n>=1} (1 - x^n)^(-tau(n)) up to x^tmax.

    A type of (r, d) with t = gcd(r, d) is a multiset of (k, m) pairs with
    sum k*m = t, and a part of size n = k*m comes in tau(n) kinds (k | n).
    """
    coeffs = [1] + [0] * tmax
    for n in range(1, tmax + 1):
        for _ in range(sum(1 for k in range(1, n + 1) if n % k == 0)):
            for i in range(n, tmax + 1):
                coeffs[i] += coeffs[i - n]
    return coeffs


def test_stratum_type_counts_match_generating_function():
    counts = _type_counts(20)
    assert counts[1:7] == [1, 3, 5, 11, 17, 34] and counts[20] == 14750
    assert sum(counts[1:]) == 45560
    for t in range(1, 21):
        assert len(enumerate_strata(t, 0)) == counts[t], f"d = 0, r = {t}"
    for t in range(1, 13):
        # slope 3/2 (q = 2), and a negative slope with q = 3
        assert len(enumerate_strata(2 * t, 3 * t)) == counts[t]
        assert len(enumerate_strata(3 * t, -5 * t)) == counts[t]


def test_walk_matches_reference_pair_multisets():
    # at slope 0 a part ((k, 0), m) is its pair (k, m); the walk moves the
    # lexicographically last multiset, the maximal ((t, 1),), to the front
    from strataref import _pair_multisets as reference

    for t in range(1, 13):
        pairs = [tuple((k, m) for (k, _), m in s.parts) for s in enumerate_strata(t, 0)]
        want = list(reference(t))
        assert pairs == want[-1:] + want[:-1], f"t = {t}"


@pytest.mark.parametrize("g, r, d, generic", [
    (2, 12, 36, False), (3, 9, -6, True), (0, 1, -1, False), (4, 1, 7, True), (1, 8, 12, False),
])
def test_walk_sums_are_the_sums_of_the_shares(g, r, d, generic):
    import curvedt.strata as strata

    types = [s.parts for s in enumerate_strata(r, d)]
    assert list(strata._walk(g, r, d, generic)) == list(walk_over(types)(g, r, d, generic))


def test_streamed_records_match_the_report_and_the_reference():
    """The lemma sweep of the last test: each record as the stream gives it
    equals the report's and the reference certificate's."""
    from curvedt.strata import stratum_records

    for g in range(1, 6):
        for r in range(1, 11):
            for d in range(r * (2 * g - 2) + 1, r * (2 * g - 1) + 1):
                if g == 1 and gcd(r, d) != 1:
                    continue
                for generic in (False, True):
                    streamed = list(stratum_records(g, r, d, generic))
                    assert tuple(streamed) == certify_virtual_smallness(g, r, d, generic).records
                    records, _, _ = ref.certify_records(g, r, d, generic)
                    assert [(rec.stratum.parts, rec.codim, rec.bound, rec.passes)
                            for rec in streamed] == [
                        (rec.stratum.parts, rec.codim, rec.bound, rec.passes) for rec in records
                    ], (g, r, d, generic)


def test_enumeration_order_matches_reference():
    from strataref import _pair_multisets as reference

    for r, d in [(12, 0), (8, 12), (9, -6)]:
        t = gcd(r, abs(d)) if d else r
        q, p = r // t, d // t
        expected = [
            StratumType(tuple(((k * q, k * p), m) for k, m in pairs)) for pairs in reference(t)
        ]
        expected.sort(key=lambda s: (not s.is_maximal, s.parts))
        assert enumerate_strata(r, d) == expected


def test_certify_calls_layers_through_module_globals(monkeypatch):
    """The benchmark's traced child times these by rebinding module globals.

    The certificate walks the types through the module global ``_walk``
    once per class, reading each type's sums off the walk: it calls
    neither the enumeration, the per-type bound nor the quiver, which only
    a framing failure builds, for its message.
    """
    import curvedt.strata as strata

    calls = Counter()
    for name in ("_walk", "enumerate_strata", "smallness_bound", "build_fiber_quiver"):

        def counted(*args, _name=name, _fn=getattr(strata, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(strata, name, counted)
    rep = strata.certify_virtual_smallness(2, 6, 18)
    assert rep.in_theorem_range and len(rep.records) == 34 and rep.passes
    assert dict(calls) == {"_walk": 1}
    calls.clear()
    rep = strata.certify_virtual_smallness(3, 6, -6, generic=True)
    assert not rep.in_theorem_range and rep.passes
    assert dict(calls) == {"_walk": 1}
    calls.clear()
    with pytest.raises(VerificationError, match="non-positive framing"):
        strata.certify_virtual_smallness(0, 1, -1)
    assert dict(calls) == {"_walk": 1, "build_fiber_quiver": 1}


def test_fiber_quiver_low_genus():
    s = stratum(((1, 7), 2), ((2, 14), 1), ((3, 21), 1))
    q1, q0 = quiver(1, s), quiver(0, s)
    assert q1.arrows == ((1, 0, 0), (0, 1, 0), (0, 0, 1)) and q1.framing == (7, 14, 21)
    assert q0.arrows == ((0, -2, -3), (-2, -3, -6), (-3, -6, -8)) and q0.framing == (8, 16, 24)


def test_codim_error_names_the_class(monkeypatch):
    import curvedt.strata as strata

    # a coprime genus-1 class has one type; two parts there would have codimension 1 - 2
    types = [(((2, 1), 1),), (((1, 1), 1), ((1, 1), 1))]
    monkeypatch.setattr(strata, "_walk", walk_over(types))
    with pytest.raises(VerificationError) as exc:
        strata.certify_virtual_smallness(1, 2, 1)
    assert str(exc.value) == (
        "class (g, r, d) = (1, 2, 1): negative codimension -1 "
        "for stratum 1*(1,1) + 1*(1,1) at genus 1"
    )


def test_maximality_error_names_the_class(monkeypatch):
    import curvedt.strata as strata

    types = [(((2, 1), 1),), (((1, 1), 2),)]  # codim 0 off the dense stratum at g = 1
    monkeypatch.setattr(strata, "_walk", walk_over(types))
    with pytest.raises(VerificationError) as exc:
        strata.certify_virtual_smallness(1, 2, 1)
    assert str(exc.value) == (
        "class (g, r, d) = (1, 2, 1): codimension 0 inconsistent with maximality of 2*(1,1)"
    )


def test_framing_error_names_the_class():
    # slope -1 is above 2g-2 = -2 at genus 0, but the framing d + r is 0
    with pytest.raises(VerificationError) as exc:
        certify_virtual_smallness(0, 1, -1)
    assert str(exc.value) == (
        "class (g, r, d) = (0, 1, -1): non-positive framing (0,) for 1*(1,-1) "
        "despite slope -1 > -2"
    )


@pytest.mark.parametrize("types, text", [
    ([(((2, 0), 1),), (((1, 0), 2),)], "non-positive framing (0,) for 1*(2,0)"),
    ([(((2, 1), 1),), (((1, -1), 1), ((1, 2), 1))], "non-positive framing (-1, 2) for "
                                                    "1*(1,-1) + 1*(1,2)"),
], ids=["maximal", "second"])
def test_framing_error_names_the_first_type_of_a_rank_two_class(monkeypatch, types, text):
    # each type's count of non-positive framings is a sum of the walk, so the first
    # type with a non-positive part raises; every type of a real class has the
    # framing's sign, so there the maximal type fails first.  No class of the domain
    # has a rank-two type with framing <= 0 in range: the types are injected
    import curvedt.strata as strata

    monkeypatch.setattr(strata, "_walk", walk_over(types))
    with pytest.raises(VerificationError) as exc:
        strata.certify_virtual_smallness(1, 2, 1)
    assert str(exc.value) == f"class (g, r, d) = (1, 2, 1): {text} despite slope 1/2 > 0"


@pytest.mark.parametrize("g, r, d", [(1, 2, 0), (1, 3, 0), (0, 2, -2), (0, 2, -3)])
def test_a_class_outside_the_moduli_domain_is_a_domain_error(g, r, d):
    # not a failed certificate (a negative codimension, a non-positive framing):
    # the class and the reason, as the CLI's usage error says them
    with pytest.raises(DomainError) as want:
        check_domain(g, r, d, moduli=True)
    for generic in (False, True):
        with pytest.raises(DomainError) as exc:
            certify_virtual_smallness(g, r, d, generic)
        assert str(exc.value) == str(want.value)


@pytest.mark.parametrize("g, r, d", [(2, 0, 1), (1, 0, 1), (2, -1, 1)])
def test_a_rank_below_one_is_a_domain_error_naming_the_class(g, r, d):
    for generic in (False, True):
        with pytest.raises(DomainError) as exc:
            certify_virtual_smallness(g, r, d, generic)
        assert str(exc.value) == f"class (g, r, d) = ({g}, {r}, {d}): rank must be positive"


@pytest.mark.parametrize("types, count", [([], 0), ([(((2, 6), 1),)] * 2, 2)])
def test_maximal_count_error_names_the_class(monkeypatch, types, count):
    import curvedt.strata as strata

    monkeypatch.setattr(strata, "_walk", walk_over(types))
    with pytest.raises(VerificationError) as exc:
        strata.certify_virtual_smallness(2, 2, 6)
    assert str(exc.value) == (
        f"class (g, r, d) = (2, 2, 6): expected exactly one maximal type, got {count}"
    )


@pytest.mark.parametrize(
    "value, verdicts", [(0, [True, False, False]), (Fraction(-1, 2), [False, True, True])]
)
def test_pass_needs_zero_on_the_dense_stratum_and_negative_elsewhere(
    monkeypatch, capsys, value, verdicts
):
    import curvedt.strata as strata

    monkeypatch.setattr(strata, "_half", lambda twice: Fraction(value))  # every bound
    rep = strata.certify_virtual_smallness(2, 2, 6)
    assert [rec.passes for rec in rep.records] == verdicts and rep.verdict == "FAIL"
    assert cli.main(["strata", "-g", "2", "-r", "2", "-d", "6"]) == 1
    assert capsys.readouterr().out.endswith("verdict: FAIL\n")


@pytest.mark.parametrize(
    "g, r, d, generic",
    [
        (2, 6, 18, False),
        (2, 6, 18, True),  # generic bound
        (3, 8, 4, False),  # out of range: slope 1/2 is not above 4
        (3, 6, -6, True),  # out of range, generic bound
        (1, 3, 5, False),  # genus 1
        (4, 12, 84, False),
    ],
)
def test_public_per_type_functions_agree_with_the_certificate(g, r, d, generic):
    """The certificate sums per-part shares itself; the public functions must agree."""
    rep = certify_virtual_smallness(g, r, d, generic)
    assert rep.in_theorem_range == (Fraction(d, r) > 2 * g - 2)
    for rec in rep.records:
        assert rec.codim == ref.codim_stratum(g, rec.stratum)
        assert rec.bound == smallness_bound(g, rec.stratum, generic)
        if rep.in_theorem_range:
            assert min(build_fiber_quiver(g, rec.stratum).framing) > 0


def test_the_lemmas_hold_on_every_record_of_the_domain():
    """The lemmas of the module docstring, on g = 1..5, r <= 10 and the r
    degrees just above r(2g-2), a full residue period, in both bound modes."""
    for g in range(1, 6):
        for r in range(1, 11):
            for d in range(r * (2 * g - 2) + 1, r * (2 * g - 1) + 1):
                if g == 1 and gcd(r, d) != 1:
                    continue  # outside the domain
                curve, generic = (certify_virtual_smallness(g, r, d, mode) for mode in (False, True))
                assert curve.passes and generic.passes and curve.in_theorem_range
                for rec, rec_generic in zip(curve.records, generic.records, strict=True):
                    s = rec.stratum
                    assert rec_generic.stratum == s and rec_generic.codim == rec.codim
                    if s.is_maximal:
                        assert rec.bound == 0 and rec.codim == 0
                    else:
                        assert rec.bound <= Fraction(-1, 2) and rec.codim >= 1
                    assert rec_generic.bound == Fraction(1 - sum(m for _, m in s.parts), 2)
                    assert min(build_fiber_quiver(g, s).framing) > 0
