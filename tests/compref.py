"""Reference composition sums, by enumerating all 2^(r-1) compositions.

``curvedt.invariants.composition_prefactors`` sums the weights of the
compositions of r by dynamic programming over partial sums.  This module
keeps the direct form as an oracle: ``compositions`` lists every ordered
sequence of positive parts summing to r, ``composition_weight`` is one
composition's weight with its L-exponent held as an exact ``Fraction``,
and ``enumerated_prefactors`` groups the weights by their sorted parts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

from curvedt.invariants import VerificationError
from curvedt.ring import CycloDenominator, RingElem, half_lefschetz, ring_sum


def compositions(r: int) -> Iterator[Tuple[int, ...]]:
    """All 2^(r-1) ordered sequences of positive integers summing to r."""
    if r < 1:
        raise ValueError("compositions of r >= 1 only")

    def rec(remaining: int, prefix: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        for first in range(1, remaining + 1):
            yield from rec(remaining - first, prefix + (first,))

    yield from rec(r, ())


def composition_weight(comp: Tuple[int, ...], d: int) -> RingElem:
    """prod_i L^((r_i + r_{i+1}) {s_i d / r}) / (1 - L^(r_i + r_{i+1})).

    s_i is the i-th partial sum of the composition and {x} the fractional
    part with floor toward minus infinity.  The accumulated L-exponent is
    kept as an exact Fraction and must land in (1/2) Z.
    """
    r = sum(comp)
    exponent = Fraction(0)
    dens: List[int] = []
    s = 0
    for i in range(len(comp) - 1):
        s += comp[i]
        exponent += (comp[i] + comp[i + 1]) * Fraction((s * d) % r, r)
        dens.append(comp[i] + comp[i + 1])
    doubled = 2 * exponent
    if doubled.denominator != 1:
        raise VerificationError(
            f"composition {comp}, degree {d}: L-exponent {exponent} is not half-integral"
        )
    return RingElem(half_lefschetz(int(doubled)), CycloDenominator(tuple(dens)))


def enumerated_prefactors(r: int, d: int) -> Dict[Tuple[int, ...], RingElem]:
    """Weights summed over compositions with the same multiset of parts."""
    groups: Dict[Tuple[int, ...], List[RingElem]] = {}
    for comp in compositions(r):
        groups.setdefault(tuple(sorted(comp)), []).append(composition_weight(comp, d))
    return {parts: ring_sum(ws) for parts, ws in groups.items()}
