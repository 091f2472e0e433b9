"""Reference ring elements with a rational numerator, for differential tests.

This is ``curvedt.ring.RingElem`` as it was before elements were held
fraction-free (an int numerator over one int scale): the numerator is a
``LaurentPoly`` whose coefficients may be ``Fraction``s, a scalar
product builds one ``Fraction`` per term, and a sum divides its cleared
integer total by the lcm of the coefficient denominators term by term.
The arithmetic is copied from that version, except that every sum takes
the dict path (the packed path of ``curvedt.ring._packed_sum`` computes
the same total and has its own differential tests).  The polynomial
kernel, ``CycloDenominator`` and ``exact_divide_cyclo`` are shared.

``RefElem`` has the part of ``RingElem``'s interface that the series
code uses, so that code runs on it unchanged: ``ref_series`` gives the
plethystic Exp and Log of ``curvedt.series`` over this arithmetic.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Tuple, Union

from curvedt import series
from curvedt.ring import CycloDenominator, LaurentPoly, exact_divide_cyclo
from curvedt.ring import _canon, _integral

Scalar = Union[int, Fraction]


def _divided(terms: Dict, den: int) -> Dict:
    """A dict of int coefficients divided by den, canonically (terms itself if den is 1)."""
    if den == 1:
        return terms
    return {m: _canon(Fraction(c, den)) for m, c in terms.items()}


def _cleared_sum(items: List["RefElem"], signs: Iterable[int]) -> Tuple[Dict, int, CycloDenominator]:
    """(N, D, lcd) with sum_i sign_i * item_i = N / (D * lcd), on term dicts."""
    lcd = items[0].den
    for x in items[1:]:
        lcd = lcd.lcm(x.den)
    cleared = [_integral(list(x.num.terms.values())) for x in items]
    den = lcm(*(d for _, d in cleared))
    scales = [sign * (den // d) for sign, (_, d) in zip(signs, cleared)]
    scaled = [cs if f == 1 else [c * f for c in cs] for (cs, _), f in zip(cleared, scales)]
    missing = [lcd.diff(x.den) for x in items]
    total: Dict = {}
    for x, cs, ks in zip(items, scaled, missing):
        terms = dict(zip(x.num.terms, cs))
        get = terms.get
        for k in ks:
            s = 2 * k
            for (a, b), c in list(terms.items()):
                terms[a + s, b + s] = get((a + s, b + s), 0) - c
        if not total:
            total = terms
            continue
        get = total.get
        for m, c in terms.items():
            total[m] = get(m, 0) + c
    return {m: c for m, c in total.items() if c}, den, lcd


@dataclass(frozen=True, eq=False)
class RefElem:
    """num / prod_k (1 - L^k), never reduced; equal when the difference's numerator is 0."""

    num: LaurentPoly
    den: CycloDenominator = CycloDenominator()

    @classmethod
    def zero(cls) -> "RefElem":
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls) -> "RefElem":
        return cls(LaurentPoly.one())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __neg__(self) -> "RefElem":
        return RefElem(-self.num, self.den)

    def __add__(self, other: "RefElem") -> "RefElem":
        if not isinstance(other, RefElem):
            return NotImplemented
        return _sum_elem([self, other])

    def __sub__(self, other: "RefElem") -> "RefElem":
        if not isinstance(other, RefElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["RefElem", LaurentPoly, Scalar]) -> "RefElem":
        if isinstance(other, RefElem):
            return RefElem(self.num * other.num, self.den * other.den)
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return RefElem(self.num * other, self.den)
        return NotImplemented

    def __rmul__(self, other: Union[LaurentPoly, Scalar]) -> "RefElem":
        return self.__mul__(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RefElem):
            return NotImplemented
        return not _cleared_sum([self, other], (1, -1))[0]

    __hash__ = None

    def adams(self, n: int) -> "RefElem":
        return RefElem(self.num.adams(n), self.den.adams(n))

    def to_polynomial(self) -> LaurentPoly:
        out = self.num
        for k in self.den.factors:
            out = exact_divide_cyclo(out, k)
        return out


def _sum_elem(items: List[RefElem]) -> RefElem:
    total, den, lcd = _cleared_sum(items, [1] * len(items))
    return RefElem(LaurentPoly(_divided(total, den)), lcd)


def ring_sum(items: Iterable[RefElem], weights: Iterable[int] = None) -> RefElem:
    """The sum of weight * item, each weight multiplied in first (1 by default)."""
    items = list(items) if weights is None else [x * w for x, w in zip(items, weights)]
    return _sum_elem(items) if items else RefElem.zero()


@contextmanager
def ref_series():
    """curvedt.series with RefElem in place of RingElem, for the duration."""
    saved = series.RingElem, series.ring_sum
    series.RingElem, series.ring_sum = RefElem, ring_sum
    try:
        yield series
    finally:
        series.RingElem, series.ring_sum = saved
