"""Truncated graded series over the exact ring, with plethystic Exp/Log.

A GradedSeries holds the coefficients of t^0 .. t^rmax; the truncation
order is part of the value and binary operations require matching
orders.  The plethystic exponential of a series f with constant term 0
is

    E = Exp(f) = exp( sum_{k >= 1} psi_k(f) / k ),

where psi_k acts on coefficients through their Adams operation and on t
by t -> t^k.  Comparing t d/dt log E on both sides gives the Newton
identity

    n E_n = sum_{k=1..n} P_k E_{n-k},   P_n = sum_{d | n} psi_{n/d}(d f_d),

with E_0 = 1.  pleth_exp runs it forward.  pleth_log solves it backward
for f: the k = n term holds P_n, whose d = n part is n f_n, so

    n f_n = n E_n - sum_{k<n} P_k E_{n-k} - sum_{d | n, d < n} psi_{n/d}(d f_d).

Both take O(rmax^2) ring products, skip zero coefficients, and divide
by n only once per output coefficient; the running P_k and d f_d carry
no 1/n.  A Log coefficient with no correction terms is E_n itself and
is returned as it is: the slope series of a coprime class has a single
nonzero coefficient.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .ring import RingElem, ring_sum


@dataclass(frozen=True)
class GradedSeries:
    coeffs: Tuple[RingElem, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def rmax(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, r: int) -> RingElem:
        return self.coeffs[r]


def _same_order(f: GradedSeries, g: GradedSeries) -> None:
    if f.rmax != g.rmax:
        raise ValueError("series truncation orders differ")


def series_mul(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    _same_order(f, g)
    out = []
    for r in range(f.rmax + 1):
        parts = [
            f.coeffs[i] * g.coeffs[r - i]
            for i in range(r + 1)
            if not (f.coeffs[i].is_zero() or g.coeffs[r - i].is_zero())
        ]
        out.append(ring_sum(parts))
    return GradedSeries(tuple(out))


def _sum(parts: List[RingElem]) -> RingElem:
    """Sum of the nonzero parts; a lone nonzero part is returned as it is."""
    parts = [x for x in parts if not x.is_zero()]
    return parts[0] if len(parts) == 1 else ring_sum(parts)


def _convolution(p: List[RingElem], e: List[RingElem], n: int) -> List[RingElem]:
    """The products P_k E_{n-k}, 0 < k < n, of nonzero factors."""
    return [p[k] * e[n - k] for k in range(1, n) if not (p[k].is_zero() or e[n - k].is_zero())]


def _adams_images(scaled: List[RingElem], n: int) -> List[RingElem]:
    """psi_{n/d}(d f_d) for the divisors d < n of n with f_d nonzero."""
    return [
        scaled[d].adams(n // d)
        for d in range(1, n // 2 + 1)
        if n % d == 0 and not scaled[d].is_zero()
    ]


def pleth_exp(f: GradedSeries) -> GradedSeries:
    if not f.coeffs[0].is_zero():
        raise ValueError("pleth_exp needs constant term 0")
    scaled = [c * d for d, c in enumerate(f.coeffs)]
    p = [RingElem.zero()] * (f.rmax + 1)
    e = [RingElem.one()] + [RingElem.zero()] * f.rmax
    for n in range(1, f.rmax + 1):
        p[n] = _sum(_adams_images(scaled, n) + [scaled[n]])
        e[n] = _sum(_convolution(p, e, n) + [p[n]]) * Fraction(1, n)
    return GradedSeries(tuple(e))


def pleth_log(f: GradedSeries) -> GradedSeries:
    if not (f.coeffs[0] == RingElem.one()):
        raise ValueError("pleth_log needs constant term 1")
    e = f.coeffs
    p = [RingElem.zero()] * (f.rmax + 1)
    scaled = list(p)
    out = list(p)
    for n in range(1, f.rmax + 1):
        conv = _convolution(p, e, n)
        images = _adams_images(scaled, n)
        if not conv and not images:
            out[n] = e[n]  # no correction: returned as it is
            if n < f.rmax:
                p[n] = scaled[n] = e[n] * n
            continue
        parts = [e[n] * n] + [-x for x in conv]
        if n < f.rmax:  # P_n is read again at higher ranks
            p[n] = _sum(parts)
            parts = [p[n]]
        scaled[n] = _sum(parts + [-x for x in images])
        out[n] = scaled[n] * Fraction(1, n)
    return GradedSeries(tuple(out))
