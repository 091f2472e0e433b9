"""Reference plethystic Exp and Log through power sums, for differential tests.

This is the series layer as it was before Exp and Log were computed by
the Newton identity: ordinary truncated log/exp as sums of powers,
plethystic Exp as the exp of an Adams sum, and plethystic Log as a
Moebius sum of Adams images of the ordinary log.  It shares only
``GradedSeries`` with ``curvedt.series`` and serves as the oracle for
``pleth_exp``/``pleth_log``.
"""

from __future__ import annotations

from fractions import Fraction

from curvedt.ring import RingElem, ring_sum
from curvedt.series import GradedSeries


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
