"""Pipeline layer: zeta series, composition sums, HDT, Betti numbers.

Oracles used here and how they were fixed in advance:

* HDT_{1,d} = L^(-g/2) (1-u)^g (1-v)^g by hand: the degree-1 piece of
  the plethystic Log is the series coefficient itself, and the kappa
  prefactor cancels the 1/(1-L) pole of the building block.
* Jacobian Betti numbers binomial(2g, k): the r = 1 moduli space is the
  Jacobian, whose cohomology is an exterior algebra on 2g generators.
* Composition weights for (1,1) at d = 1 and (1,1,1) at d = 1 computed
  by hand from the fractional-part formula.
* Torsion invariants: E(X)/L^(1/2) at d = 1, zero afterwards.
"""

import json
import warnings
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from curvedt import cli, invariants, ring
import polyref as ref
from compref import composition_weight, compositions
from curvedt.invariants import (
    VerificationError,
    betti_numbers,
    composition_prefactors,
    curve_epoly,
    determinant_factor,
    dim_moduli,
    hdt,
    ih_poincare,
    q_class,
    q_rank,
    slope_series,
    torsion_dt,
    zeta_at_lefschetz,
    zeta_series,
)
from curvedt.ring import (
    CycloDenominator,
    DomainError,
    LaurentPoly,
    RingElem,
    half_lefschetz,
    lefschetz,
    specialize_y,
)
from curvedt.series import pleth_exp, pleth_log
from curvedt.strata import certify_virtual_smallness


def in_uv(x):
    """A pipeline element, whose numerator is in s = u + v, with its numerator in u, v."""
    return RingElem(x.num.to_laurent(), x.den)


def one_minus_u(g):
    return (LaurentPoly.one() - LaurentPoly({(2, 0): 1})) ** g


def one_minus_v(g):
    return (LaurentPoly.one() - LaurentPoly({(0, 2): 1})) ** g


def test_dim_moduli_examples():
    assert dim_moduli(2, 2) == 5
    assert dim_moduli(3, 1) == 3
    assert dim_moduli(2, 4) == 17


def test_curve_epoly():
    assert curve_epoly(2) == (
        LaurentPoly.one() - LaurentPoly({(2, 0): 2}) - LaurentPoly({(0, 2): 2}) + LaurentPoly({(2, 2): 1})
    )


def test_zeta_series_low_coefficients():
    z = zeta_series(2, 3)
    assert z[0] == RingElem.one()
    assert z[1] == RingElem(curve_epoly(2))


def test_zeta_series_is_plethystic_exp():
    for g in (0, 1, 2, 3):
        f = (RingElem.zero(), RingElem(curve_epoly(g))) + (RingElem.zero(),) * 3
        assert pleth_exp(f) == zeta_series(g, 4)


def test_zeta_at_lefschetz():
    x = zeta_at_lefschetz(2, 1)
    assert x.den == CycloDenominator.of(1, 2)
    want = (LaurentPoly.one() - LaurentPoly({(4, 2): 1})) ** 2 * (
        LaurentPoly.one() - LaurentPoly({(2, 4): 1})
    ) ** 2
    assert x.num.to_laurent() == want
    assert zeta_at_lefschetz(0, 3).num.to_laurent() == LaurentPoly.one()
    assert zeta_at_lefschetz(0, 3).den == CycloDenominator.of(3, 4)


def test_q_rank_hand_assembled():
    # Q_1 at g = 2: -L^(-1/2) (1-u)^2 (1-v)^2 / (1-L)
    got = in_uv(q_rank(2, 1))
    want = RingElem(
        -half_lefschetz(-1) * one_minus_u(2) * one_minus_v(2),
        CycloDenominator.of(1),
    )
    assert got == want


def q_rank_direct(g, r):
    """Reference Q_r: the whole product num * prod_{i<r} Z(L^i), rebuilt for every rank."""
    num = half_lefschetz((1 - g) * r * r) * one_minus_u(g) * one_minus_v(g)
    out = RingElem(-num, CycloDenominator.of(1))
    for i in range(1, r):
        out = out * in_uv(zeta_at_lefschetz(g, i))
    return out


@pytest.mark.parametrize("g", range(6))
def test_q_rank_rank_by_rank_matches_direct_product(g):
    # from a cold cache, rank 7 first builds every rank below it
    q_rank.cache_clear()
    for r in range(7, 0, -1):
        got, want = in_uv(q_rank(g, r)), q_rank_direct(g, r)
        assert got.num.terms == want.num.terms
        assert got.den.factors == want.den.factors


def test_compositions_of_three():
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]


def test_composition_weight_hand_values():
    # (1,1) at d=1, r=2: fractional part 1/2, exponent 2*(1/2) = 1
    w = composition_weight((1, 1), 1)
    assert w == RingElem(half_lefschetz(2), CycloDenominator.of(2))
    # (1,1,1) at d=1, r=3: exponents 2*(1/3) + 2*(2/3) = 2
    w = composition_weight((1, 1, 1), 1)
    assert w == RingElem(half_lefschetz(4), CycloDenominator.of(2, 2))
    # degree shift by r leaves the weight unchanged
    assert composition_weight((1, 2), 2) == composition_weight((1, 2), 5)
    # negative degrees use fractional parts in [0, 1)
    assert composition_weight((1, 1), -1) == composition_weight((1, 1), 1)


def test_composition_prefactor_groups():
    groups = composition_prefactors(3, 0)
    assert set(groups) == {(3,), (1, 2), (1, 1, 1)}
    # (1,2) group: compositions (1,2) and (2,1), both weight 1/(1-L^3)
    two_over = RingElem(LaurentPoly({(0, 0): 2}), CycloDenominator.of(3))
    assert groups[(1, 2)] == two_over


def test_q_class_periodicity():
    for g in (2,):
        for r in range(1, 5):
            for d in range(r):
                assert q_class(g, r, d) == q_class(g, r, d + r)


def test_slope_series_shape():
    s = slope_series(2, Fraction(1, 2), 4)
    assert in_uv(s[0]) == RingElem.one()
    assert s[1].is_zero() and s[3].is_zero()
    assert s[2] == q_class(2, 2, 1)
    assert s[4] == q_class(2, 4, 2)
    with pytest.raises(ValueError):
        slope_series(2, Fraction(1, 3), 2)


def test_hdt_rank_one():
    # HDT_{1,d} = L^(-g/2) (1-u)^g (1-v)^g
    for g in (2, 3):
        want = half_lefschetz(-g) * one_minus_u(g) * one_minus_v(g)
        assert hdt(g, 1, 0) == want
        assert hdt(g, 1, 7) == want


def test_hdt_requires_positive_rank():
    with pytest.raises(ValueError):
        hdt(2, 0, 1)


def test_jacobian_betti_binomials():
    for g in (2, 3):
        res = ih_poincare(g, 1, 0)
        assert res.dim == g
        assert list(res.betti) == [comb(2 * g, k) for k in range(2 * g + 1)]


def test_hdt_self_dual_and_positive():
    for (g, r, d) in [(2, 2, 0), (2, 3, 1), (3, 2, 1)]:
        h = hdt(g, r, d)
        assert h.dual() == h
        neg = ref.at_neg_y(specialize_y(h).terms)
        assert all(c >= 0 and c.denominator == 1 for c in neg.values())


def test_ih_epoly_even_exponents_and_symmetry():
    for (g, r, d) in [(2, 2, 0), (2, 2, 1), (3, 2, 1)]:
        p = ih_poincare(g, r, d).ih
        assert all(a % 2 == 0 and b % 2 == 0 for a, b in p.terms)
        dim = dim_moduli(g, r)
        # coefficients symmetric under (i,j) -> (dim-i, dim-j)
        assert p == p.dual() * LaurentPoly({(2 * dim, 2 * dim): 1})
        # lowest total degree is the constant 1 (one-dimensional IH^0)
        low = min(a + b for a, b in p.terms)
        bottom = [m for m in p.terms if m[0] + m[1] == low]
        assert bottom == [(0, 0)] and p.terms[(0, 0)] == 1


def test_torsion_values():
    for g in (2, 3, 4):
        vals = torsion_dt(g, 4)
        assert vals[1] == curve_epoly(g) * half_lefschetz(-1)
        assert vals[2].is_zero() and vals[3].is_zero() and vals[4].is_zero()
    with pytest.raises(ValueError):
        torsion_dt(2, 0)


def test_determinant_factor_full_row():
    res = ih_poincare(2, 2, 0)
    assert determinant_factor(2, res.betti) == [1, 0, 1, 0, 1, 0, 1]


def test_determinant_factor_not_divisible():
    # 1 + y^2 is not divisible by (1-y)^4
    with pytest.raises(VerificationError):
        determinant_factor(2, [1, 0, 1])


def test_determinant_factor_rejects_a_negative_genus():
    # (1-y)^(2g) has no negative power to divide by: no silent identity at g < 0
    with pytest.raises(DomainError) as exc:
        determinant_factor(-1, [1, 2, 1])
    assert str(exc.value) == "genus must be >= 0, got -1"


def test_valid_classes_at_genus_one_and_two_raise_nothing():
    # every check runs at every genus: valid classes pass them and warn of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g, r, d in ((2, 2, 1), (2, 2, 0), (1, 2, 1), (1, 3, -1)):
            assert ih_poincare(g, r, d).betti == betti_numbers(g, r, d)
        assert hdt(1, 2, 0).is_zero()  # genus 1, gcd 2: HDT without a moduli space
        assert torsion_dt(1, 2)[2].is_zero()


def test_failed_self_duality_exits_one_at_genus_one(capsys, monkeypatch):
    # --force-genus no longer softens a check: a failed one is exit 1, not a warning
    monkeypatch.setattr(LaurentPoly, "dual", lambda p: -p)
    hdt.cache_clear()  # a cached HDT would skip the check
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["hdt", "-g", "1", "-r", "1", "-d", "0", "--force-genus"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == "error: HDT at rank 1, slope 0, genus 1 is not self-dual\n"


# (call, the class it names, the CLI's usage error for that class)
DOMAIN_ERRORS = [
    (lambda: hdt(-1, 1, 0), "(-1, 1, 0)", "genus must be >= 0"),
    (lambda: torsion_dt(-1, 2), "(-1, 0, 2)", "genus must be >= 0"),
    (lambda: ih_poincare(-1, 2, 1), "(-1, 2, 1)", "genus must be >= 0"),
    (lambda: betti_numbers(-1, 2, 1), "(-1, 2, 1)", "genus must be >= 0"),
    (lambda: certify_virtual_smallness(-1, 2, 1), "(-1, 2, 1)", "genus must be >= 0"),
    (lambda: ih_poincare(0, 3, 1), "(0, 3, 1)", "dim M(r,d) = (g-1)r^2 + 1 = -8 is negative"),
    (lambda: betti_numbers(0, 2, 1), "(0, 2, 1)", "dim M(r,d) = (g-1)r^2 + 1 = -3 is negative"),
    (lambda: ih_poincare(1, 2, 0), "(1, 2, 0)",
     "gcd(r, d) = 2 at genus <= 1, where dim M(r,d) = (g-1)r^2 + 1 does not hold"),
    (lambda: betti_numbers(1, 2, 0), "(1, 2, 0)",
     "gcd(r, d) = 2 at genus <= 1, where dim M(r,d) = (g-1)r^2 + 1 does not hold"),
    # a rank below 1 has dim M(r,d) = 1 at r = 0, so only the rank rule refuses it
    (lambda: ih_poincare(2, 0, 1), "(2, 0, 1)", "rank must be positive"),
    (lambda: betti_numbers(2, 0, 1), "(2, 0, 1)", "rank must be positive"),
    (lambda: ih_poincare(3, -2, 1), "(3, -2, 1)", "rank must be positive"),
    (lambda: hdt(2, 0, 1), "(2, 0, 1)", "hdt needs rank >= 1; rank 0 is the torsion case"),
    (lambda: torsion_dt(2, 0), "(2, 0, 0)", "torsion mode (rank 0) needs degree >= 1"),
]


@pytest.mark.parametrize("call, where, message", DOMAIN_ERRORS,
                         ids=[f"{i}-{w}" for i, (_, w, _) in enumerate(DOMAIN_ERRORS)])
def test_a_class_outside_the_domain_is_a_domain_error(call, where, message):
    # no nonsense answer (dim -8 with no Betti numbers, (0, 0, 0), a PASS at
    # genus -1) and no kernel error: the class and the reason, as the CLI says them
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == f"class (g, r, d) = {where}: {message}"


@pytest.mark.parametrize("argv, call", [
    ("betti -g -1 -r 2 -d 1", lambda: betti_numbers(-1, 2, 1)),
    ("betti -g 0 -r 3 -d 1 --force-genus", lambda: ih_poincare(0, 3, 1)),
    ("detfactor -g 1 -r 2 -d 0 --force-genus", lambda: betti_numbers(1, 2, 0)),
    ("hdt -g 0 -r 2 -d 0 --force-genus", lambda: betti_numbers(0, 2, 0)),
])
def test_library_domain_errors_read_as_the_cli_usage_errors(capsys, argv, call):
    with pytest.raises(SystemExit):
        cli.main(argv.split())
    err = capsys.readouterr().err
    with pytest.raises(DomainError) as exc:
        call()
    assert err.endswith(f": error: {exc.value}\n")


def test_dtresult_json_shape():
    obj = json.loads(cli._dt_json(ih_poincare(2, 1, 0)))
    assert list(obj) == ["betti", "degree", "dim", "genus", "hdt", "ih_epoly", "rank"]
    assert obj["betti"] == [1, 4, 6, 4, 1]
    assert all(set(t) == {"eu2", "ev2", "num", "den"} for t in obj["hdt"])


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(
    st.sampled_from((2, 3)),
    st.integers(1, 5).flatmap(lambda r: st.tuples(st.just(r), st.integers(-r, 2 * r - 1))),
)
def test_hdt_degree_symmetries(g, rd):
    # M(r,d) is isomorphic to M(r,-d) (dual bundles) and to M(r,d+r)
    # (twist by a degree-one line bundle); Hodge symmetry swaps u and v.
    r, d = rd
    h = hdt(g, r, d)
    assert hdt(g, r, -d) == h
    assert hdt(g, r, d + r) == h
    assert {(b, a): c for (a, b), c in h.terms.items()} == h.terms


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(
    st.sampled_from((2, 3)),
    st.integers(1, 4).flatmap(lambda r: st.tuples(st.just(r), st.integers(-3 * r, 3 * r))),
)
def test_hdt_is_self_dual(g, rd):
    # Poincare duality of the intersection cohomology: u -> 1/u, v -> 1/v
    # fixes HDT_{r,d} for every class, of either sign of degree.
    r, d = rd
    h = hdt(g, r, d)
    assert not h.is_zero() and h.dual() == h


def test_slope_mode_divides_each_class_once(monkeypatch):
    # Slope mode asks for ranks 1, 2, 3, 4 of slope 0 in turn; each class
    # clears its cyclotomic denominators once, not once per lower rank too.
    for cached in vars(invariants).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    calls = []
    divide = RingElem.to_polynomial

    def counting(self):
        calls.append(self)
        return divide(self)

    monkeypatch.setattr(RingElem, "to_polynomial", counting)
    for r in range(1, 5):
        ih_poincare(2, r, 0)
    assert len(calls) == 4


@pytest.mark.parametrize("diagonal", (False, True))
def test_a_second_hdt_is_the_cached_object(monkeypatch, diagonal):
    # hdt is cached per class and path: a hit neither divides nor checks again
    hdt.cache_clear()
    first = hdt(2, 3, 1, diagonal)
    calls = []
    monkeypatch.setattr(ring, "exact_divide_cyclo", lambda *args: calls.append(args))
    monkeypatch.setattr(type(first), "dual", lambda p: calls.append(p))
    assert hdt(2, 3, 1, diagonal) is first
    assert calls == []


def test_hdt_has_one_cache_key_however_diagonal_is_spelled():
    hdt.cache_clear()
    first = hdt(2, 4, 1)
    assert hdt(2, 4, 1, False) is first and hdt(2, 4, 1, diagonal=False) is first
    info = hdt.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


@pytest.mark.parametrize("g", (2, 3))
@pytest.mark.parametrize("tau", (Fraction(0), Fraction(1, 2), Fraction(1, 3)), ids=str)
def test_hdt_does_not_depend_on_truncation(g, tau):
    # The t^r coefficient of a plethystic Log reads only t^1 .. t^r, so a
    # slope series truncated beyond rank r gives the same HDT_{r, r tau}.
    kappa = half_lefschetz(1) - half_lefschetz(-1)
    logf = pleth_log(slope_series(g, tau, 6 if tau.denominator == 3 else 5))
    for r in range(tau.denominator, 5, tau.denominator):
        assert hdt(g, r, int(r * tau)) == (in_uv(logf[r]) * kappa).to_polynomial()
