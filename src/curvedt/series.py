"""Truncated graded series over the exact ring, with plethystic Exp/Log.

A GradedSeries holds the coefficients of t^0 .. t^rmax; the truncation
order is part of the value and binary operations require matching
orders.  The plethystic exponential is

    Exp(f) = exp( sum_{n >= 1} psi_n(f) / n ),

where psi_n acts on coefficients through their Adams operation and on t
by t -> t^n.  Its inverse Log is computed by Moebius inversion of the
ordinary series logarithm:

    Log(f) = sum_{k >= 1} (mu(k) / k) psi_k(log f).

Everything is exact; ordinary log/exp are the finite truncated sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple

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


def series(coeffs: Iterable[RingElem]) -> GradedSeries:
    return GradedSeries(tuple(coeffs))


def unit_series(rmax: int) -> GradedSeries:
    return GradedSeries((RingElem.one(),) + (RingElem.zero(),) * rmax)


def zero_series(rmax: int) -> GradedSeries:
    return GradedSeries((RingElem.zero(),) * (rmax + 1))


def _same_order(f: GradedSeries, g: GradedSeries) -> None:
    if f.rmax != g.rmax:
        raise ValueError("series truncation orders differ")


def series_add(f: GradedSeries, g: GradedSeries) -> GradedSeries:
    _same_order(f, g)
    return GradedSeries(tuple(a + b for a, b in zip(f.coeffs, g.coeffs)))


def series_scale(f: GradedSeries, c: Fraction | int) -> GradedSeries:
    return GradedSeries(tuple(a * c for a in f.coeffs))


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


def series_log(f: GradedSeries) -> GradedSeries:
    """log f = sum_{m>=1} (-1)^(m+1) (f-1)^m / m, needs constant term 1."""
    if not (f.coeffs[0] == RingElem.one()):
        raise ValueError("series_log needs constant term 1")
    g = GradedSeries((RingElem.zero(),) + f.coeffs[1:])
    acc = zero_series(f.rmax)
    power = g
    for m in range(1, f.rmax + 1):
        acc = series_add(acc, series_scale(power, Fraction((-1) ** (m + 1), m)))
        if m < f.rmax:
            power = series_mul(power, g)
    return acc


def series_exp(f: GradedSeries) -> GradedSeries:
    """exp f = sum_{m>=0} f^m / m!, needs constant term 0."""
    if not f.coeffs[0].is_zero():
        raise ValueError("series_exp needs constant term 0")
    acc = unit_series(f.rmax)
    power = f
    factorial = 1
    for m in range(1, f.rmax + 1):
        factorial *= m
        acc = series_add(acc, series_scale(power, Fraction(1, factorial)))
        if m < f.rmax:
            power = series_mul(power, f)
    return acc


def adams_series(n: int, f: GradedSeries) -> GradedSeries:
    """psi_n on a series: coefficients through their Adams map, t -> t^n.

    Indices beyond the truncation order are dropped, so the result keeps
    the same rmax.
    """
    if n < 1:
        raise ValueError("Adams operations are indexed by n >= 1")
    out = [RingElem.zero()] * (f.rmax + 1)
    for r in range(0, f.rmax // n + 1):
        out[n * r] = f.coeffs[r].adams(n)
    return GradedSeries(tuple(out))


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius is defined on positive integers")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def pleth_exp(f: GradedSeries) -> GradedSeries:
    if not f.coeffs[0].is_zero():
        raise ValueError("pleth_exp needs constant term 0")
    acc = zero_series(f.rmax)
    for n in range(1, f.rmax + 1):
        acc = series_add(acc, series_scale(adams_series(n, f), Fraction(1, n)))
    return series_exp(acc)


def pleth_log(f: GradedSeries) -> GradedSeries:
    if not (f.coeffs[0] == RingElem.one()):
        raise ValueError("pleth_log needs constant term 1")
    lg = series_log(f)
    acc = zero_series(f.rmax)
    for k in range(1, f.rmax + 1):
        mu = mobius(k)
        if mu:
            acc = series_add(acc, series_scale(adams_series(k, lg), Fraction(mu, k)))
    return acc
