"""Donaldson-Thomas invariants of a curve and Betti numbers of bundle moduli.

For a smooth projective curve of genus g the computation chains through:

1. the motivic zeta function Z(t) = (1-ut)^g (1-vt)^g / ((1-t)(1-Lt)),
   evaluated at integer powers of L;
2. the rank-r building block
   Q_r = L^((1-g) r^2 / 2) (1-u)^g (1-v)^g / (L-1) * prod_{i<r} Z(L^i),
   the motive of the stack of all rank-r bundles (any degree twist);
3. the semistable class Q_{r,d}, the closed solution of the slope-filtration
   recursion: a sum over the compositions of r, with partial sums
   0 = s_0 < ... < s_k = r, of prod_i L^(e_i) / (1 - L^(s_(i+1) - s_(i-1))),
   e_i = (s_(i+1) - s_(i-1)) {s_i d/r} - {s_i s_(i+1) d/r} + {s_(i-1) s_i d/r}
   ({x} the fractional part): the last two terms telescope to 0 and make
   each e_i an integer, so the sum runs by dynamic programming over s;
4. HDT_{r,d}: the t^r coefficient of (L^(1/2) - L^(-1/2)) Log(Q_tau),
   where Q_tau collects all Q_{r,d} of one slope tau = d/r; the result
   must clear every denominator factor, i.e. be an honest Laurent
   polynomial in u, v and (uv)^(-1/2);
5. Betti numbers: specialize u = v = y, shift by y^dim with sign
   (-1)^dim (dim = (g-1)r^2 + 1), then flip y -> -y.  The coefficients
   are the intersection-cohomology Betti numbers of the moduli space
   M(r,d) of semistable bundles, Poincare-dual and starting at 1.
   Every input of steps 1-4 is symmetric in u, v, so they run in
   s = u + v and (uv)^(1/2) (SymPoly); hdt converts HDT to u, v once.
   betti_numbers (betti table and CSV, detfactor) runs steps 1-4 on the
   images under u, v -> (uv)^(1/2), a ring map that fixes L^(1/2) and
   commutes with Adams operations, duality and u = v = y.  Its numerators
   are dense rows in the one variable (uv)^(1/2) (ImagePoly: the kind of
   every diagonal step), and hdt converts the image of HDT to the
   diagonal LaurentPoly once.

Everything is exact.  The consistency checks (integrality, self-duality,
non-negativity, palindromicity) always run and raise VerificationError.
On the u = v image they are: every division exact, the image of HDT
self-dual, the Betti numbers integral, non-negative, in range,
palindromic.  The check that L^(dim/2) HDT has integer exponents in u and
v has no meaning there; it runs in hdt and ih_poincare (commands hdt,
betti --format json, verify).  A class outside check_domain raises DomainError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .ring import (
    CycloDenominator,
    DomainError,
    ImagePoly,
    LaurentPoly,
    NotDivisibleError,
    RingElem,
    SymPoly,
    half_lefschetz,
    lefschetz,
    ring_sum,
    specialize_y,
)
from .series import Series, pleth_exp, pleth_log


class VerificationError(AssertionError):
    """A structural consistency check of the computation failed."""


def _ensure(ok: bool, message: str) -> None:
    if not ok:
        raise VerificationError(message)


def class_label(g: int, r: int, d: int) -> str:
    """How an error names the class it is about."""
    return f"class (g, r, d) = ({g}, {r}, {d})"


def dim_moduli(g: int, r: int) -> int:
    """Complex dimension of M(r,d): (g-1) r^2 + 1."""
    return (g - 1) * r * r + 1


def check_domain(g: int, r: int, d: int, moduli: bool = False) -> None:
    """Raise DomainError for a negative genus or, with moduli, for a class whose
    dim M(r,d) = (g-1) r^2 + 1 is negative or, at genus <= 1 with gcd(r, d) != 1,
    does not hold, or whose rank is below 1; the texts are those of the CLI's
    usage errors and of the stratum certificate."""
    where = class_label(g, r, d)
    if g < 0:
        raise DomainError(f"{where}: genus must be >= 0")
    if not moduli:
        return
    dim = dim_moduli(g, r)
    if dim < 0:
        raise DomainError(f"{where}: dim M(r,d) = (g-1)r^2 + 1 = {dim} is negative")
    if g <= 1 and gcd(r, d) != 1:
        raise DomainError(f"{where}: gcd(r, d) = {gcd(r, d)} at genus <= 1, where "
                          "dim M(r,d) = (g-1)r^2 + 1 does not hold")
    if r < 1:
        raise DomainError(f"{where}: rank must be positive")


def curve_epoly(g: int) -> LaurentPoly:
    """Hodge-Euler polynomial of the curve itself: 1 - gu - gv + uv."""
    return LaurentPoly({(0, 0): 1, (2, 0): -g, (0, 2): -g, (2, 2): 1})


def _kappa(kind=LaurentPoly):
    """L^(1/2) - L^(-1/2) = (uv)^(-1/2) - (uv)^(1/2), in the numerator class kind."""
    return half_lefschetz(1, kind) - half_lefschetz(-1, kind)


def zeta_series(g: int, rmax: int) -> Series:
    """Z(t) = (1-ut)^g (1-vt)^g / ((1-t)(1-Lt)), truncated at t^rmax."""
    coeffs: List[LaurentPoly] = []
    for j in range(rmax + 1):
        terms = {}
        for a in range(max(0, j - g), min(g, j) + 1):
            b = j - a
            c = comb(g, a) * comb(g, b) * (-1 if j % 2 else 1)
            terms[(2 * a, 2 * b)] = c
        coeffs.append(LaurentPoly(terms))
    # divide by (1 - t): running sum
    for j in range(1, rmax + 1):
        coeffs[j] = coeffs[j] + coeffs[j - 1]
    # divide by (1 - Lt): running L-weighted sum
    for j in range(1, rmax + 1):
        coeffs[j] = coeffs[j] + coeffs[j - 1] * lefschetz(1)
    return tuple(RingElem(p) for p in coeffs)


def _curve_factor(g: int, i: int, diagonal: bool):
    """(1-uL^i)^g (1-vL^i)^g = (1-sL^i+L^(2i+1))^g as a SymPoly, or with
    diagonal its image (1-(uv)^(1/2) L^i)^(2g) = (1+L^(i+1/2))^(2g) as an ImagePoly."""
    if diagonal:
        return (ImagePoly.one() + half_lefschetz(1 + 2 * i, ImagePoly)) ** (2 * g)
    return SymPoly({(0, 0): 1, (2 * i + 1, 2 * i - 1): -1, (4 * i + 2, 4 * i + 2): 1}) ** g


def zeta_at_lefschetz(g: int, i: int, diagonal: bool = False) -> RingElem:
    """Z(L^i) = (1-uL^i)^g (1-vL^i)^g / ((1-L^i)(1-L^(i+1))) over a SymPoly, or its u = v image."""
    return RingElem(_curve_factor(g, i, diagonal), CycloDenominator.of(i, i + 1))


@lru_cache(maxsize=None)
def q_rank(g: int, r: int, diagonal: bool = False) -> RingElem:
    """The rank-r building block Q_r (degree-independent), built from Q_{r-1}.

    Q_r = Q_{r-1} * L^((1-g)(2r-1)/2) * Z(L^(r-1)), since the L-exponents
    (1-g) r^2 / 2 of consecutive ranks differ by (1-g)(2r-1)/2.
    """
    if r < 1:
        raise DomainError("Q_r is defined for r >= 1")
    kind = ImagePoly if diagonal else SymPoly
    if r > 1:
        z = zeta_at_lefschetz(g, r - 1, diagonal)
        return q_rank(g, r - 1, diagonal) * (z * half_lefschetz((1 - g) * (2 * r - 1), kind))
    num = half_lefschetz(1 - g, kind) * _curve_factor(g, 0, diagonal)
    # 1/(L-1) = -1/(1-L)
    return RingElem(-num, CycloDenominator.of(1))


def composition_prefactors(r: int, d: int, kind=LaurentPoly) -> Dict[Tuple[int, ...], RingElem]:
    """Weights summed over the compositions of r with the same multiset of parts.

    Keys are sorted part tuples; the values are genus-independent.  The sum
    runs by dynamic programming over partial sums s (step 3 of the module
    docstring): a state at s is (sorted parts so far, the partial sum p
    before s), with p keyed as 0 at s = r, where it no longer matters.
    """
    if r < 1:
        raise DomainError("compositions of r >= 1 only")
    # layer s starts with the one composition of s into one part
    layers = {s: {((s,), 0): [RingElem(kind.one())]} for s in range(1, r + 1)}
    for s in range(1, r):
        for (parts, p), ws in layers.pop(s).items():
            w = ring_sum(ws)
            for t in range(s + 1, r + 1):
                e, rest = divmod((t - p) * (s * d % r) - s * t * d % r + p * s * d % r, r)
                if rest:
                    raise VerificationError(f"composition sum of rank {r}, degree {d}: step "
                                            f"({p}, {s}, {t}) has a non-integer L-exponent")
                step = RingElem(half_lefschetz(2 * e, kind), CycloDenominator.of(t - p))
                key = (tuple(sorted(parts + (t - s,))), s if t < r else 0)
                layers[t].setdefault(key, []).append(w * step)
    return {parts: ring_sum(ws) for (parts, _), ws in layers[r].items()}


@lru_cache(maxsize=None)
def q_class(g: int, r: int, d: int, diagonal: bool = False) -> RingElem:
    """The semistable class Q_{r,d} as a composition sum, in q_rank's numerator class."""
    terms = []
    for parts, weight in composition_prefactors(r, d, ImagePoly if diagonal else SymPoly).items():
        prod = weight
        for c in parts:
            prod = prod * q_rank(g, c, diagonal)
        terms.append(prod)
    return ring_sum(terms)


def slope_series(g: int, tau: Fraction, rmax: int, diagonal: bool = False) -> Series:
    """Q_tau(t) = 1 + sum over ranks r with r*tau integral of Q_{r, r*tau} t^r."""
    tau = Fraction(tau)
    q = tau.denominator
    if rmax < q:
        raise DomainError("rmax must reach the slope denominator")
    kind = ImagePoly if diagonal else SymPoly
    coeffs = [RingElem(kind.zero())] * (rmax + 1)
    coeffs[0] = RingElem(kind.one())
    for r in range(q, rmax + 1, q):
        coeffs[r] = q_class(g, r, int(r * tau), diagonal)
    return tuple(coeffs)


def hdt(g: int, r: int, d: int, diagonal: bool = False) -> LaurentPoly:
    """The Donaldson-Thomas invariant HDT_{r,d} (rank r >= 1), or with diagonal its
    u = v image: the t^r coefficient of kappa Log(Q_tau), computed in s = u + v, or
    in the image ring with diagonal, and returned in u, v.

    Cached per class and path, so integrality (clearing the cyclotomic
    denominators) and self-duality under u,v -> 1/u,1/v are checked once.
    """
    return _hdt(g, r, d, bool(diagonal))


@lru_cache(maxsize=None)
def _hdt(g: int, r: int, d: int, diagonal: bool) -> LaurentPoly:
    if r < 1:
        raise DomainError(f"{class_label(g, r, d)}: hdt needs rank >= 1; "
                          "rank 0 is the torsion case")
    check_domain(g, r, d)
    tau = Fraction(d, r)
    try:
        x = pleth_log(slope_series(g, tau, r, diagonal))[r]
        p = (x * _kappa(type(x.num))).to_polynomial()
    except NotDivisibleError as exc:
        stage = "integrality of HDT" + (" on the u = v image" if diagonal else "")
        raise NotDivisibleError(f"{class_label(g, r, d)}, {stage}: {exc}") from exc
    p = p.to_laurent()
    _ensure(p.dual() == p, f"HDT at rank {r}, slope {tau}, genus {g} is not self-dual")
    return p


hdt.cache_info, hdt.cache_clear = _hdt.cache_info, _hdt.cache_clear  # one key however spelled


def torsion_dt(g: int, dmax: int) -> Dict[int, LaurentPoly]:
    """Rank-0 invariants HDT_{0,d} for 1 <= d <= dmax.

    The degree series of torsion sheaves is Exp(E(X)/(L-1) * t); its
    plethystic logarithm times L^(1/2) - L^(-1/2) collapses to the
    single term E(X)/L^(1/2) at d = 1.
    """
    if dmax < 1:
        raise DomainError(f"{class_label(g, 0, dmax)}: torsion mode (rank 0) needs degree >= 1")
    check_domain(g, 0, dmax)
    coeffs = [RingElem.zero()] * (dmax + 1)
    coeffs[1] = RingElem(-curve_epoly(g), CycloDenominator.of(1))
    f = pleth_exp(tuple(coeffs))
    logf = pleth_log(f)
    kappa = _kappa()
    out = {}
    for d in range(1, dmax + 1):
        try:
            out[d] = (logf[d] * kappa).to_polynomial()
        except NotDivisibleError as exc:
            raise NotDivisibleError(f"{class_label(g, 0, d)}, "
                                    f"integrality of torsion HDT: {exc}") from exc
    for d, p in out.items():
        _ensure(p.dual() == p, f"torsion HDT at degree {d}, genus {g} is not self-dual")
    return out


class DTResult(NamedTuple):
    """One moduli space, fully evaluated."""

    genus: int
    rank: int
    degree: int
    dim: int
    hdt: LaurentPoly
    ih: LaurentPoly
    betti: Tuple[int, ...]


def ih_poincare(g: int, r: int, d: int) -> DTResult:
    """Betti numbers of IH*(M(r,d)): shift to the IH polynomial, specialize, flip signs.

    The IH polynomial HDT_{r,d} * L^(dim/2) has integer powers of u and v only:
    the half-integer contributions of HDT must cancel against the shift.
    """
    check_domain(g, r, d, moduli=True)
    h = hdt(g, r, d)
    ih = h * half_lefschetz(dim_moduli(g, r))
    _ensure(all(a % 2 == 0 and b % 2 == 0 for a, b in ih.terms),
            f"IH Euler polynomial of M({r},{d}), genus {g} has half-integer exponents")
    return DTResult(g, r, d, dim_moduli(g, r), h, ih, _betti(ih, g, r, d))


def betti_numbers(g: int, r: int, d: int) -> Tuple[int, ...]:
    """ih_poincare(g, r, d).betti, computed on the u = v image."""
    check_domain(g, r, d, moduli=True)
    ih = hdt(g, r, d, diagonal=True) * half_lefschetz(dim_moduli(g, r))
    return _betti(ih, g, r, d)


def _betti(ih: LaurentPoly, g: int, r: int, d: int) -> Tuple[int, ...]:
    """The Betti numbers read off specialize_y(ih), with their checks."""
    dim = dim_moduli(g, r)
    betti = [0] * (2 * dim + 1)
    # in ascending powers of y, so that failed checks report in degree order
    for e2, c in sorted(specialize_y(ih).terms.items()):
        if e2 % 2:
            raise VerificationError(f"specialized HDT of M({r},{d}) has a half-integer power")
        k = e2 // 2
        value = -c if k % 2 else c
        if not (0 <= k <= 2 * dim):
            raise VerificationError(f"Betti index {k} of M({r},{d}) out of range [0, {2*dim}]")
        if value.denominator != 1 or value < 0:
            raise VerificationError(f"Betti number b_{k} of M({r},{d}), genus {g} is {value}")
        betti[k] = int(value)
    for k in range(2 * dim + 1):
        _ensure(
            betti[k] == betti[2 * dim - k],
            f"Betti sequence of M({r},{d}), genus {g} is not palindromic at {k}",
        )
    return tuple(betti)


def determinant_factor(g: int, betti: Sequence[int]) -> List[int]:
    """Quotient of the Poincare polynomial by the Jacobian factor.

    The signed polynomial sum b_k (-y)^k is divided by (1-y)^(2g)
    (synthetic division, remainder must vanish at each of the 2g steps)
    and the quotient is reported back at -y, which makes it the
    non-negative factor corresponding to fixed-determinant bundles.
    """
    if g < 0:
        raise DomainError(f"genus must be >= 0, got {g}")
    s = [(-b if k % 2 else b) for k, b in enumerate(betti)]
    for _ in range(2 * g):
        if len(s) < 2:
            raise DomainError("polynomial too short for the Jacobian factor")
        q = [0] * (len(s) - 1)
        q[0] = s[0]
        for j in range(1, len(s) - 1):
            q[j] = s[j] + q[j - 1]
        if s[-1] + q[-1] != 0:
            raise VerificationError(
                f"Poincare polynomial is not divisible by (1-y)^{2*g}"
            )
        s = q
    return [(-c if k % 2 else c) for k, c in enumerate(s)]
