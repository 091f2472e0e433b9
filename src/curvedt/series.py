"""Truncated graded series over the exact ring, with plethystic Exp/Log.

A series is the tuple of its coefficients of t^0 .. t^rmax, so
rmax = len(f) - 1; series_mul needs both factors truncated at the same
order.  The plethystic exponential of a series f with constant term 0
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
by n only once per output coefficient, by multiplying its integer scale
by n (see ``RingElem``); the running P_k and d f_d carry no 1/n.  A Log
coefficient with no correction terms is E_n itself and is returned as
it is: the slope series of a coprime class has a single nonzero
coefficient.  Zero and one take the class of the input's numerators
(LaurentPoly or SymPoly).  Everything is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from .ring import DomainError, RingElem, ring_sum

Series = Tuple[RingElem, ...]


def series_mul(f: Series, g: Series) -> Series:
    if len(f) != len(g):
        raise DomainError("series truncation orders differ")
    out = []
    for r in range(len(f)):
        parts = [
            f[i] * g[r - i]
            for i in range(r + 1)
            if not (f[i].is_zero() or g[r - i].is_zero())
        ]
        out.append(ring_sum(parts))
    return tuple(out)


def _sum(parts: List[RingElem]) -> RingElem:
    """Sum of the nonzero parts; a lone nonzero part, or else the first part, is returned as it is."""
    nonzero = [x for x in parts if not x.is_zero()]
    return ring_sum(nonzero) if len(nonzero) > 1 else (nonzero or parts)[0]


def _convolution(p: List[RingElem], e: Sequence[RingElem], n: int) -> List[RingElem]:
    """The products P_k E_{n-k}, 0 < k < n, of nonzero factors."""
    return [p[k] * e[n - k] for k in range(1, n) if not (p[k].is_zero() or e[n - k].is_zero())]


def _adams_images(scaled: List[RingElem], n: int) -> List[RingElem]:
    """psi_{n/d}(d f_d) for the divisors d < n of n with f_d nonzero."""
    return [
        scaled[d].adams(n // d)
        for d in range(1, n // 2 + 1)
        if n % d == 0 and not scaled[d].is_zero()
    ]


def pleth_exp(f: Series) -> Series:
    if not f or not f[0].is_zero():
        raise DomainError("pleth_exp needs constant term 0")
    rmax, kind = len(f) - 1, type(f[0].num)
    scaled = [c * d for d, c in enumerate(f)]
    p = [RingElem(kind.zero())] * (rmax + 1)
    e = [RingElem(kind.one())] + [RingElem(kind.zero())] * rmax
    for n in range(1, rmax + 1):
        p[n] = _sum(_adams_images(scaled, n) + [scaled[n]])
        e[n] = _sum(_convolution(p, e, n) + [p[n]]) * Fraction(1, n)
    return tuple(e)


def pleth_log(e: Series) -> Series:
    if not (e and e[0] == RingElem(type(e[0].num).one())):
        raise DomainError("pleth_log needs constant term 1")
    rmax = len(e) - 1
    p = [RingElem(type(e[0].num).zero())] * (rmax + 1)
    scaled = list(p)
    out = list(p)
    for n in range(1, rmax + 1):
        conv = _convolution(p, e, n)
        images = _adams_images(scaled, n)
        if not conv and not images:
            out[n] = e[n]  # no correction: returned as it is
            if n < rmax:
                p[n] = scaled[n] = e[n] * n
            continue
        parts = [e[n] * n] + [-x for x in conv]
        if n < rmax:  # P_n is read again at higher ranks
            p[n] = _sum(parts)
            parts = [p[n]]
        scaled[n] = _sum(parts + [-x for x in images])
        out[n] = scaled[n] * Fraction(1, n)
    return tuple(out)
