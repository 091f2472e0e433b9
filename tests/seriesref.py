"""Reference plethystic Exp and Log through power sums, for differential tests.

This is the series layer as it was before Exp and Log were computed by
the Newton identity: ordinary truncated log/exp as sums of powers,
plethystic Exp as the exp of an Adams sum, and plethystic Log as a
Moebius sum of Adams images of the ordinary log.  A series is the tuple
of its coefficients of t^0 .. t^rmax, as in ``curvedt.series``, with
which this module shares no code; it serves as the oracle for
``pleth_exp``/``pleth_log``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from curvedt.ring import RingElem, ring_sum

Series = Tuple[RingElem, ...]


def unit_series(rmax: int) -> Series:
    return (RingElem.one(),) + (RingElem.zero(),) * rmax


def zero_series(rmax: int) -> Series:
    return (RingElem.zero(),) * (rmax + 1)


def _same_order(f: Series, g: Series) -> None:
    if len(f) != len(g):
        raise ValueError("series truncation orders differ")


def series_add(f: Series, g: Series) -> Series:
    _same_order(f, g)
    return tuple(a + b for a, b in zip(f, g))


def series_scale(f: Series, c: Fraction | int) -> Series:
    return tuple(a * c for a in f)


def series_mul(f: Series, g: Series) -> Series:
    _same_order(f, g)
    out = []
    for r in range(len(f)):
        parts = [
            f[i] * g[r - i]
            for i in range(r + 1)
            if not (f[i].is_zero() or g[r - i].is_zero())
        ]
        out.append(ring_sum(parts))
    return tuple(out)


def series_log(f: Series) -> Series:
    """log f = sum_{m>=1} (-1)^(m+1) (f-1)^m / m, needs constant term 1."""
    if not (f and f[0] == RingElem.one()):
        raise ValueError("series_log needs constant term 1")
    rmax = len(f) - 1
    g = (RingElem.zero(),) + f[1:]
    acc = zero_series(rmax)
    power = g
    for m in range(1, rmax + 1):
        acc = series_add(acc, series_scale(power, Fraction((-1) ** (m + 1), m)))
        if m < rmax:
            power = series_mul(power, g)
    return acc


def series_exp(f: Series) -> Series:
    """exp f = sum_{m>=0} f^m / m!, needs constant term 0."""
    if not (f and f[0].is_zero()):
        raise ValueError("series_exp needs constant term 0")
    rmax = len(f) - 1
    acc = unit_series(rmax)
    power = f
    factorial = 1
    for m in range(1, rmax + 1):
        factorial *= m
        acc = series_add(acc, series_scale(power, Fraction(1, factorial)))
        if m < rmax:
            power = series_mul(power, f)
    return acc


def adams_series(n: int, f: Series) -> Series:
    """psi_n on a series: coefficients through their Adams map, t -> t^n.

    Indices beyond the truncation order are dropped, so the result keeps
    the same rmax.
    """
    if n < 1:
        raise ValueError("Adams operations are indexed by n >= 1")
    out = [RingElem.zero()] * len(f)
    for r in range(0, (len(f) - 1) // n + 1):
        out[n * r] = f[r].adams(n)
    return tuple(out)


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


def pleth_exp(f: Series) -> Series:
    if not (f and f[0].is_zero()):
        raise ValueError("pleth_exp needs constant term 0")
    acc = zero_series(len(f) - 1)
    for n in range(1, len(f)):
        acc = series_add(acc, series_scale(adams_series(n, f), Fraction(1, n)))
    return series_exp(acc)


def pleth_log(f: Series) -> Series:
    if not (f and f[0] == RingElem.one()):
        raise ValueError("pleth_log needs constant term 1")
    lg = series_log(f)
    acc = zero_series(len(f) - 1)
    for k in range(1, len(f)):
        mu = mobius(k)
        if mu:
            acc = series_add(acc, series_scale(adams_series(k, lg), Fraction(mu, k)))
    return acc
