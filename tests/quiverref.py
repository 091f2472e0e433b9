"""Reference numerical DT invariants of the m-loop quiver, in integers.

The m-loop quiver has one vertex and m loops.  Reineke (Compositio Math.
147, 2011, Theorem 6.8) gives its numerical Donaldson-Thomas invariants
in closed form:

    DT_d^(m) = (1/d^2) sum_{e | d} mu(d/e) (-1)^((m-1)(d-e)) C(me - 1, e - 1),

where mu is the Moebius function.  For m = 2 this is 1, 1, 1, 2, 5, ...;
for m = 3 it is 1, 1, 3, 10, 40, ....  This module imports nothing from
curvedt: it shares no code with its ring or its plethystic Log, so it is
an independent oracle for the Log at any order.
"""

from __future__ import annotations

from math import comb


def mobius(n: int) -> int:
    """mu(n): 0 if a square divides n, else (-1)^(number of prime factors)."""
    if n < 1:
        raise ValueError("the Moebius function is defined for n >= 1")
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def loop_quiver_dt(m: int, d: int) -> int:
    """Reineke's DT_d^(m) of the m-loop quiver, for m >= 1 and d >= 1."""
    if m < 1 or d < 1:
        raise ValueError("the m-loop quiver has m >= 1 and dimension d >= 1")
    total = sum(mobius(d // e) * (-1) ** ((m - 1) * (d - e)) * comb(m * e - 1, e - 1)
                for e in range(1, d + 1) if d % e == 0)
    dt, rest = divmod(total, d * d)
    if rest:
        raise ArithmeticError(f"DT_{d} of the {m}-loop quiver is not an integer")
    return dt
