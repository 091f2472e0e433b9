"""Closed rational expressions cross-checking the pipeline output.

Three independent families of identities, all compared exactly by
cross-multiplication (no division, no tolerance):

* For rank r <= 4 the signed Poincare polynomial
  S(y) = sum_k b_k (-y)^k of M(r,d) has a closed expression as a ratio
  of products of cyclotomic-type factors (1 - y^k)^(2g) and short
  palindromic units.  ``ih_closed_form_check`` rebuilds S(y) from the
  pipeline Betti numbers and verifies the identity.

* The rank-r building block specializes at u = v = y to
  (-y)^((1-g) r^2) (y^(2r) - 1) prod_{i<=r} (1-y^(2i-1))^(2g) / (1-y^(2i))^2,
  verified by ``q_rank_closed_form_check``.

* The composition sum resolving the slope-filtration recursion groups,
  for each multiset of parts, into a single rational coefficient of
  Q_{r_1}...Q_{r_k}; the grouped coefficients for r <= 4 are tabulated
  here and verified by ``resolution_check``.

All three give end-to-end guards: they share no code path with the
multivariate pipeline beyond the ring primitives.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Tuple

from .invariants import ih_poincare, q_rank, composition_prefactors
from .ring import DomainError, RingElem, UniPoly, specialize_elem

_HALF = Fraction(1, 2)
_THIRD = Fraction(1, 3)
_QUARTER = Fraction(1, 4)


def _y(k: int) -> UniPoly:
    """y^k (k may be negative)."""
    return UniPoly({2 * k: 1})


def _om(k: int) -> UniPoly:
    """1 - y^k."""
    return UniPoly.one() - _y(k)


def _op(k: int) -> UniPoly:
    """1 + y^k."""
    return UniPoly.one() + _y(k)


def _cyclo3(k: int) -> UniPoly:
    """1 + y^k + y^(2k)."""
    return UniPoly.one() + _y(k) + _y(2 * k)


def _poincare_den(r: int) -> UniPoly:
    """(1-y^2)(1-y^4)^2...(1-y^(2r-2))^2 (1-y^(2r))."""
    den = _om(2)
    for i in range(2, r):
        den = den * _om(2 * i) ** 2
    return den * _om(2 * r)


def _num_2_0(g: int) -> UniPoly:
    return (
        _om(1) ** (2 * g) * _om(3) ** (2 * g)
        - _y(2 * g - 2) * _om(1) ** (4 * g)
        + _y(2 * g - 2) * _om(4) * _om(1) ** (4 * g) * _HALF
        + _y(2 * g - 2) * _om(2) ** 2 * _om(2) ** (2 * g) * (_HALF * (-1) ** g)
    )


def _num_2_1(g: int) -> UniPoly:
    return _om(1) ** (2 * g) * _om(3) ** (2 * g) - _y(2 * g) * _om(1) ** (4 * g)


def _num_3_0(g: int) -> UniPoly:
    return (
        _om(1) ** (2 * g) * _om(3) ** (2 * g) * _om(5) ** (2 * g)
        - _y(4 * g - 4) * _op(2) * _op(6) * _om(1) ** (4 * g) * _om(3) ** (2 * g)
        + _y(6 * g - 6) * _cyclo3(2) * _cyclo3(4) * _om(1) ** (6 * g) * _THIRD
        - _y(6 * g - 6) * _om(2) ** 2 * _om(4) ** 2 * _om(3) ** (2 * g) * _THIRD
    )


def _num_3_1(g: int) -> UniPoly:
    return (
        _om(1) ** (2 * g) * _om(3) ** (2 * g) * _om(5) ** (2 * g)
        - _y(4 * g - 2) * _op(2) ** 2 * _om(1) ** (4 * g) * _om(3) ** (2 * g)
        + _y(6 * g - 2) * _cyclo3(2) * _om(1) ** (6 * g)
    )


def _num_4_0(g: int) -> UniPoly:
    rank4 = _om(1) ** (2 * g) * _om(3) ** (2 * g) * _om(5) ** (2 * g) * _om(7) ** (2 * g)
    return (
        rank4
        - _y(6 * g - 6) * _cyclo3(2) * _op(8) * _om(1) ** (4 * g) * _om(3) ** (2 * g) * _om(5) ** (2 * g)
        - _y(8 * g - 8) * _cyclo3(2) ** 2 * _op(8) * _om(1) ** (4 * g) * _om(3) ** (4 * g) * _HALF
        + _y(10 * g - 10) * _op(2) ** 2 * _op(4) ** 2 * _op(8) * _om(1) ** (6 * g) * _om(3) ** (2 * g)
        - _y(12 * g - 12) * _cyclo3(2) ** 2 * _op(4) ** 2 * _op(8) * _om(1) ** (8 * g) * _QUARTER
        - _y(8 * g - 8) * _om(2) ** 2 * _om(6) ** 2 * _om(2) ** (2 * g) * _om(6) ** (2 * g) * _HALF
        + _y(12 * g - 12) * _om(2) ** 2 * _om(6) ** 2 * _op(8) * _om(2) ** (4 * g) * _QUARTER
    )


def _num_4_1(g: int) -> UniPoly:
    rank4 = _om(1) ** (2 * g) * _om(3) ** (2 * g) * _om(5) ** (2 * g) * _om(7) ** (2 * g)
    return (
        rank4
        - _y(6 * g - 4) * _cyclo3(2) * _op(4) * _om(1) ** (4 * g) * _om(3) ** (2 * g) * _om(5) ** (2 * g)
        - _y(8 * g - 4) * _cyclo3(2) ** 2 * _om(1) ** (4 * g) * _om(3) ** (4 * g)
        + _y(10 * g - 6) * _op(2) ** 4 * _op(4) * _om(1) ** (6 * g) * _om(3) ** (2 * g)
        - _y(12 * g - 6) * _cyclo3(2) ** 2 * _op(4) * _om(1) ** (8 * g)
    )


def _num_4_2(g: int) -> UniPoly:
    rank4 = _om(1) ** (2 * g) * _om(3) ** (2 * g) * _om(5) ** (2 * g) * _om(7) ** (2 * g)
    return (
        rank4
        - _y(6 * g - 2) * _cyclo3(2) * _om(1) ** (4 * g) * _om(3) ** (2 * g) * _om(5) ** (2 * g) * 2
        - _y(8 * g - 8) * _cyclo3(2) ** 2 * _op(8) * _om(1) ** (4 * g) * _om(3) ** (4 * g) * _HALF
        + _y(10 * g - 8) * _op(2) ** 2 * _op(4) ** 3 * _om(1) ** (6 * g) * _om(3) ** (2 * g)
        - _y(12 * g - 8) * _cyclo3(2) ** 2 * _op(4) ** 2 * _om(1) ** (8 * g) * _HALF
        - _y(8 * g - 8) * _om(2) ** 2 * _om(6) ** 2 * _om(2) ** (2 * g) * _om(6) ** (2 * g) * _HALF
        + _y(12 * g - 8) * _om(2) ** 2 * _om(6) ** 2 * _om(2) ** (4 * g) * _HALF
    )


_POINCARE_NUMS: Dict[Tuple[int, int], Callable[[int], UniPoly]] = {
    (2, 0): _num_2_0,
    (2, 1): _num_2_1,
    (3, 0): _num_3_0,
    (3, 1): _num_3_1,
    (4, 0): _num_4_0,
    (4, 1): _num_4_1,
    (4, 2): _num_4_2,
}

CLOSED_FORM_CLASSES: Tuple[Tuple[int, int], ...] = tuple(sorted(_POINCARE_NUMS))


def poincare_closed_form(g: int, r: int, d: int) -> Tuple[UniPoly, UniPoly]:
    """Closed numerator and denominator of the signed Poincare polynomial.

    Returns (num, den) with S(y) = num/den where
    S(y) = sum_k dim IH^k(M(r,d)) (-y)^k.  Supported classes: rank 2, 3,
    4 with d reduced mod r to the tabulated representative.
    """
    key = (r, d % r) if r else (r, d)
    if key not in _POINCARE_NUMS:
        raise DomainError(f"no tabulated closed form for rank {r}, degree {d}")
    return _POINCARE_NUMS[key](g), _poincare_den(r)


def ih_closed_form_check(g: int, r: int, d: int) -> bool:
    """True iff the pipeline Betti numbers satisfy the closed identity."""
    betti = ih_poincare(g, r, d).betti
    signed = UniPoly(
        {2 * k: -Fraction(b) if k % 2 else Fraction(b) for k, b in enumerate(betti)}
    )
    num, den = poincare_closed_form(g, r, d)
    return num == signed * den


def q_rank_closed_form_check(g: int, r: int) -> bool:
    """Check specialize(Q_r) against its univariate closed form.

    The closed form is
    (-y)^((1-g) r^2) (y^(2r) - 1)
        prod_{i=1}^{r} (1 - y^(2i-1))^(2g) / prod_{i=1}^{r} (1 - y^(2i))^2,
    compared by cross-multiplication (the specialize step returns an
    unreduced numerator/denominator pair of its own).
    """
    q = q_rank(g, r, False)  # the pipeline's cache key, over a SymPoly numerator
    num_p, den_p = specialize_elem(RingElem(q.num.to_laurent(), q.den))
    e = (1 - g) * r * r
    closed_num = UniPoly({2 * e: -1 if e % 2 else 1}) * (_y(2 * r) - UniPoly.one())
    closed_den = UniPoly.one()
    for i in range(1, r + 1):
        closed_num = closed_num * _om(2 * i - 1) ** (2 * g)
        closed_den = closed_den * _om(2 * i) ** 2
    return num_p * closed_den == closed_num * den_p


def resolution_table(r: int, d: int) -> Dict[Tuple[int, ...], Tuple[UniPoly, UniPoly]]:
    """Tabulated grouped coefficients of the composition resolution.

    Maps each sorted part-multiset of r to (num, den) with
    coefficient(Q_{r_1}...Q_{r_k}) = num/den, for the resolutions
    Q_{1,0}; Q_{2,0}, Q_{2,1}; Q_{3,0}, Q_{3,1}; Q_{4,0}, Q_{4,1},
    Q_{4,2}.  Degrees are taken mod r.
    """
    one = UniPoly.one()
    tables: Dict[Tuple[int, int], Dict[Tuple[int, ...], Tuple[UniPoly, UniPoly]]] = {
        (1, 0): {(1,): (one, one)},
        (2, 0): {
            (2,): (one, one),
            (1, 1): (one, _om(4)),
        },
        (2, 1): {
            (2,): (one, one),
            (1, 1): (_y(2), _om(4)),
        },
        (3, 0): {
            (3,): (one, one),
            (1, 2): (one * 2, _om(6)),
            (1, 1, 1): (one, _om(4) ** 2),
        },
        (3, 1): {
            (3,): (one, one),
            (1, 2): (_y(2) + _y(4), _om(6)),
            (1, 1, 1): (_y(4), _om(4) ** 2),
        },
        (4, 0): {
            (4,): (one, one),
            (1, 3): (one * 2, _om(8)),
            (2, 2): (one, _om(8)),
            # 2/((1-y^4)(1-y^6)) + 1/(1-y^6)^2 over the common denominator
            (1, 1, 2): (_om(6) * 2 + _om(4), _om(4) * _om(6) ** 2),
            (1, 1, 1, 1): (one, _om(4) ** 3),
        },
        (4, 1): {
            (4,): (one, one),
            (1, 3): (_y(2) * _op(4), _om(8)),
            (2, 2): (_y(4), _om(8)),
            (1, 1, 2): (_y(4) * _op(2) ** 2, _om(6) ** 2),
            (1, 1, 1, 1): (_y(6), _om(4) ** 3),
        },
        (4, 2): {
            (4,): (one, one),
            (1, 3): (_y(4) * 2, _om(8)),
            (2, 2): (one, _om(8)),
            # 2y^2/((1-y^4)(1-y^6)) + y^6/(1-y^6)^2 over the common denominator
            (1, 1, 2): (_y(2) * _om(6) * 2 + _y(6) * _om(4), _om(4) * _om(6) ** 2),
            (1, 1, 1, 1): (_y(4), _om(4) ** 3),
        },
    }
    key = (r, d % r) if r else (r, d)
    if key not in tables:
        raise DomainError(f"no tabulated resolution for rank {r}, degree {d}")
    return tables[key]


def resolution_check(r: int, d: int) -> bool:
    """True iff the computed grouped composition weights match the table.

    The computed weights are genus-free elements in L alone, so the check
    is independent of g.  Comparison is per part-multiset, by
    cross-multiplication after specializing u = v = y.
    """
    computed = composition_prefactors(r, d)
    table = resolution_table(r, d)
    if set(computed) != set(table):
        return False
    for parts, elem in computed.items():
        num_c, den_c = specialize_elem(elem)
        num_t, den_t = table[parts]
        if num_c * den_t != num_t * den_c:
            return False
    return True
