"""Reference Betti numbers and motives of M(r,d) by the Harder-Narasimhan recursion.

Atiyah and Bott stratify the space of all rank-r, degree-d bundles by
Harder-Narasimhan type.  The stratification is equivariantly perfect, so
the Poincare series of the classifying space of the gauge group,

    P_t(BG_r) = prod_{k<=r} (1 + t^(2k-1))^(2g)
                / ((1 - t^(2r)) prod_{k<r} (1 - t^(2k))^2),

is the sum over all types of t^(2c) times the product of the semistable
series P^ss of the parts.  A type (r_1, d_1), ..., (r_k, d_k) has strictly
decreasing slopes d_i/r_i and complex codimension

    c = sum_{i<j} (d_i r_j - d_j r_i + (g-1) r_i r_j).

Solving for the one-part type gives P^ss_{r,d}.  For gcd(r, d) = 1 the
semistable stack is M(r,d) times BU(1), so (1 - t^2) P^ss_{r,d},
truncated at t^(2 dim), is the Poincare polynomial of M(r,d).

Series are lists of ints, truncated at an explicit top degree n.  The
same recursion over the same types runs for motives in x = 1/u, y = 1/v
(``semistable_xy``, below ``coprime_betti``), with dict series truncated
at total degree n.  This module imports nothing from curvedt: it shares
no code with its ring, series or composition sums, so it is an
independent oracle for the Betti numbers and E-polynomials of coprime
classes and for the semistable class Q_{r,d} of every class.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Series = List[int]  # coefficients of t^0 .. t^n


def _mul(a: Sequence[int], b: Sequence[int], n: int) -> Series:
    out = [0] * (n + 1)
    nonzero = [(j, y) for j, y in enumerate(b[: n + 1]) if y]
    for i, x in enumerate(a[: n + 1]):
        if x:
            for j, y in nonzero:
                if i + j > n:
                    break
                out[i + j] += x * y
    return out


def _divide_one_minus(a: Series, m: int) -> Series:
    """a / (1 - t^m): a running sum along every m-th coefficient."""
    out = list(a)
    for i in range(m, len(out)):
        out[i] += out[i - m]
    return out


def gauge_series(g: int, r: int, n: int) -> Series:
    """P_t(BG_r) up to t^n."""
    p = [1] + [0] * n
    for k in range(1, r + 1):
        odd = [0] * (n + 1)
        odd[0] = 1
        if 2 * k - 1 <= n:
            odd[2 * k - 1] = 1
        for _ in range(2 * g):
            p = _mul(p, odd, n)
    p = _divide_one_minus(p, 2 * r)
    for k in range(1, r):
        p = _divide_one_minus(_divide_one_minus(p, 2 * k), 2 * k)
    return p


@lru_cache(maxsize=None)
def _semistable(g: int, r: int, d_mod_r: int, n: int) -> Tuple[int, ...]:
    unstable = _longer_types(g, r, d_mod_r, None, n)
    return tuple(x - y for x, y in zip(gauge_series(g, r, n), unstable))


def semistable_series(g: int, r: int, d: int, n: int) -> Tuple[int, ...]:
    """P^ss_{r,d} up to t^n; it depends on d only through d mod r."""
    return _semistable(g, r, d % r, n)


def _first_parts(g: int, r: int, d: int, smax: Optional[Tuple[int, int]],
                 n: int) -> Iterator[Tuple[int, int, int]]:
    """(r1, d1, e) for the first part (r1, d1) of every type of (r, d) with at
    least two parts and 2e <= n; with smax = (p, q), only first slopes below p/q.

    A type is its first part (r1, d1) followed by a type of the rest
    (r - r1, d - d1), whose first slope lies below d1/r1.  The codimension
    of the first part against the rest lumped together is
    e = d1 r - d r1 + (g-1) r1 (r - r1): positive exactly when d1/r1 lies
    above the slope of the rest, and the rest only adds to c, so the
    degrees d1 with 2e <= n bound the search.
    """
    for r1 in range(1, r):
        d1 = d * r1 // r + 1  # the least d1 with d1/r1 above the slope of the rest
        while smax is None or d1 * smax[1] < smax[0] * r1:
            e = d1 * r - d * r1 + (g - 1) * r1 * (r - r1)
            if 2 * e > n:
                break
            yield r1, d1, e
            d1 += 1


def _longer_types(g: int, r: int, d: int, smax: Optional[Tuple[int, int]], n: int) -> Series:
    """Sum of t^(2c) prod P^ss over the types of (r, d) with at least two parts,
    up to t^n; with smax = (p, q), only types whose first slope lies below p/q."""
    total = [0] * (n + 1)
    for r1, d1, e in _first_parts(g, r, d, smax, n):
        m = n - 2 * e
        tail = semistable_series(g, r - r1, d - d1, m)
        more = _longer_types(g, r - r1, d - d1, (d1, r1), m)
        tail = [x + y for x, y in zip(tail, more)]
        for i, x in enumerate(_mul(semistable_series(g, r1, d1, m), tail, m)):
            total[2 * e + i] += x
    return total


def coprime_betti(g: int, r: int, d: int) -> Tuple[int, ...]:
    """b_0 .. b_(2 dim) of M(r,d) for gcd(r, d) = 1, dim = (g-1) r^2 + 1."""
    if gcd(r, d) != 1:
        raise ValueError("the recursion gives Betti numbers of M(r,d) for gcd(r, d) = 1 only")
    n = 2 * ((g - 1) * r * r + 1)
    p = semistable_series(g, r, d, n)
    return tuple(p[k] - (p[k - 2] if k >= 2 else 0) for k in range(n + 1))


# The same recursion for motives.  Normalised by L^(-r^2 (g-1)) and written
# in x = 1/u, y = 1/v, the class of the stack Bun_r of rank-r bundles is
# Behrend and Dhillon's
#
#     B_r = (1 - x)^g (1 - y)^g / (1 - xy)
#           * prod_{i=2..r} (1 - x^(i-1) y^i)^g (1 - x^i y^(i-1))^g
#                           / ((1 - (xy)^i) (1 - (xy)^(i-1))),
#
# which is P_t(BG_r) at x = y = -t.  A Harder-Narasimhan stratum of type
# (r_1, d_1), ..., (r_k, d_k) is (xy)^c prod S_{r_i,d_i}, with S_{r,d} the
# normalised class of the semistable stack, so solving for the one-part
# type gives S_{r,d}.  For gcd(r, d) = 1 the semistable stack is M(r,d)
# times BG_m, so (uv)^dim (1 - xy) S_{r,d} is the E-polynomial of M(r,d).

Bivariate = Dict[Tuple[int, int], int]  # coefficient of x^a y^b, kept for a + b <= n


def _bmul(a: Bivariate, b: Bivariate, n: int) -> Bivariate:
    out: Bivariate = {}
    by_degree = sorted(b.items(), key=lambda item: sum(item[0]))
    for (i, j), x in a.items():
        room = n - i - j
        for (k, l), y in by_degree:
            if k + l > room:
                break
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + x * y
    return {key: x for key, x in out.items() if x}


def _bdivide_one_minus_xy(a: Bivariate, m: int, n: int) -> Bivariate:
    """a / (1 - (xy)^m): a running sum along the diagonal steps (m, m)."""
    out = dict(a)
    for total in range(2 * m, n + 1):
        for i in range(m, total - m + 1):
            below = out.get((i - m, total - i - m))
            if below:
                out[(i, total - i)] = out.get((i, total - i), 0) + below
    return {key: x for key, x in out.items() if x}


def bundle_series(g: int, r: int, n: int) -> Bivariate:
    """B_r up to total degree n."""
    p: Bivariate = {(0, 0): 1}
    for i in range(1, r + 1):
        for key in ((i - 1, i), (i, i - 1)):
            for _ in range(g):
                p = _bmul(p, {(0, 0): 1, key: -1}, n)
        p = _bdivide_one_minus_xy(p, i, n)
        if i > 1:
            p = _bdivide_one_minus_xy(p, i - 1, n)
    return p


@lru_cache(maxsize=None)
def _semistable_xy(g: int, r: int, d_mod_r: int, n: int) -> Tuple[Tuple[Tuple[int, int], int], ...]:
    p = bundle_series(g, r, n)
    for key, x in _longer_types_xy(g, r, d_mod_r, None, n).items():
        p[key] = p.get(key, 0) - x
    return tuple(sorted((key, x) for key, x in p.items() if x))


def semistable_xy(g: int, r: int, d: int, n: int) -> Bivariate:
    """S_{r,d} up to total degree n; it depends on d only through d mod r."""
    return dict(_semistable_xy(g, r, d % r, n))


def _longer_types_xy(g: int, r: int, d: int, smax: Optional[Tuple[int, int]],
                     n: int) -> Bivariate:
    """Sum of (xy)^c prod S over the types of (r, d) with at least two parts,
    up to total degree n; smax as in _longer_types."""
    total: Bivariate = {}
    for r1, d1, e in _first_parts(g, r, d, smax, n):
        m = n - 2 * e
        tail = semistable_xy(g, r - r1, d - d1, m)
        for key, x in _longer_types_xy(g, r - r1, d - d1, (d1, r1), m).items():
            tail[key] = tail.get(key, 0) + x
        for (i, j), x in _bmul(semistable_xy(g, r1, d1, m), tail, m).items():
            total[(i + e, j + e)] = total.get((i + e, j + e), 0) + x
    return total


def coprime_epoly(g: int, r: int, d: int) -> Bivariate:
    """The E-polynomial of M(r,d) for gcd(r, d) = 1, as {(a, b): coefficient
    of u^a v^b}: (uv)^dim (1 - xy) S_{r,d}, dim = (g-1) r^2 + 1."""
    if gcd(r, d) != 1:
        raise ValueError("the recursion gives the E-polynomial of M(r,d) for gcd(r, d) = 1 only")
    dim = (g - 1) * r * r + 1
    s = semistable_xy(g, r, d, 2 * dim)
    p = dict(s)
    for (i, j), x in s.items():
        if i + j + 2 <= 2 * dim:
            p[(i + 1, j + 1)] = p.get((i + 1, j + 1), 0) - x
    return {(dim - i, dim - j): x for (i, j), x in p.items() if x}
