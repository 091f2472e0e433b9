"""Reference stratum enumeration and smallness certificate, for differential tests.

``_pair_multisets`` is the enumeration as it was before it built its
list directly: a recursive generator over the list of all (k, m) pairs
with k*m <= total.  It serves as the oracle for the order and content of
the types of the certificate's walk, ``curvedt.strata._walk``.

``certify_records`` is the certificate as it was before the per-type
loop was tuned: ``codim_stratum``, ``smallness_bound``,
``build_fiber_quiver`` and the record loop of
``certify_virtual_smallness`` as they stood then, over the plain frozen
dataclasses of that time.  It serves as the oracle for every record,
``d0`` and the theorem-range flag.

``FramedQuiver.arrows`` and ``euler_form`` keep the quiver's arrow
matrix and Euler form, which the library no longer builds: tests read
them off the ranks and framing of ``curvedt.strata.build_fiber_quiver``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterator, List, Sequence, Tuple

from curvedt.invariants import VerificationError

Part = Tuple[Tuple[int, int], int]  # ((rank, degree), multiplicity)


def _pair_multisets(total: int) -> Iterator[Tuple[Tuple[int, int], ...]]:
    """Multisets of (k, m) pairs, k, m >= 1, with sum k*m = total."""
    pairs = [(k, m) for k in range(1, total + 1) for m in range(1, total // k + 1)]

    def rec(remaining: int, start: int, acc: List[Tuple[int, int]]):
        if remaining == 0:
            yield tuple(acc)
            return
        for idx in range(start, len(pairs)):
            k, m = pairs[idx]
            if k * m <= remaining:
                acc.append((k, m))
                yield from rec(remaining - k * m, idx, acc)
                acc.pop()

    yield from rec(total, 0, [])


def dim_moduli(g: int, r: int) -> int:
    return (g - 1) * r * r + 1


@dataclass(frozen=True)
class StratumType:
    parts: Tuple[Part, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(sorted(self.parts)))
        for (r_i, d_i), m_i in self.parts:
            if r_i < 1 or m_i < 1:
                raise ValueError(f"invalid part (({r_i},{d_i}),{m_i})")

    @property
    def is_maximal(self) -> bool:
        return len(self.parts) == 1 and self.parts[0][1] == 1

    def label(self) -> str:
        return " + ".join(f"{m}*({r_i},{d_i})" for (r_i, d_i), m in self.parts)


@dataclass(frozen=True)
class FramedQuiver:
    genus: int
    ranks: Tuple[int, ...]
    framing: Tuple[int, ...]

    @cached_property
    def arrows(self) -> Tuple[Tuple[int, ...], ...]:
        g1, ranks = self.genus - 1, self.ranks
        return tuple(
            tuple((i == j) + g1 * r_i * r_j for j, r_j in enumerate(ranks))
            for i, r_i in enumerate(ranks)
        )


def euler_form(q: FramedQuiver, m: Sequence[int], m2: Sequence[int]) -> int:
    """chi_Q(m, m') = sum_i m_i m'_i - sum_{ij} a_ij m_i m'_j."""
    n = len(q.ranks)
    if len(m) != n or len(m2) != n:
        raise ValueError(f"dimension vectors must have length {n}")
    diag = sum(a * b for a, b in zip(m, m2))
    cross = sum(
        a_ij * m_i * m2_j for row, m_i in zip(q.arrows, m) for a_ij, m2_j in zip(row, m2)
    )
    return diag - cross


@dataclass(frozen=True)
class StratumRecord:
    stratum: StratumType
    codim: int
    bound: Fraction
    is_maximal: bool
    passes: bool


def enumerate_strata(r: int, d: int) -> List[StratumType]:
    t = gcd(r, abs(d)) if d else r
    q, p = r // t, d // t
    types = [StratumType(tuple(((k * q, k * p), m) for k, m in pairs)) for pairs in _pair_multisets(t)]
    types.sort(key=lambda s: (not s.is_maximal, s.parts))
    return types


def build_fiber_quiver(g: int, s: StratumType) -> FramedQuiver:
    return FramedQuiver(
        genus=g,
        ranks=tuple(r_i for (r_i, _), _ in s.parts),
        framing=tuple(d_i + (1 - g) * r_i for (r_i, d_i), _ in s.parts),
    )


def codim_stratum(g: int, s: StratumType) -> int:
    rank = sum(m * r_i for (r_i, _), m in s.parts)
    codim = dim_moduli(g, rank) - sum(
        dim_moduli(g, r_i) for (r_i, _), _ in s.parts
    )
    if codim < 0:
        raise VerificationError(
            f"negative codimension {codim} for stratum {s.label()} at genus {g}"
        )
    return codim


def d_zero(g: int, r: int, d: int) -> int:
    return d + (1 - g) * r - 1


def smallness_bound(g: int, s: StratumType, generic: bool = False) -> Fraction:
    twice = 1
    for (r_i, _), m_i in s.parts:
        chi_ii = 1 if generic else -(g - 1) * r_i * r_i
        twice += (m_i - 1) * chi_ii + 1 - 2 * m_i
    return Fraction(twice, 2)


def certify_records(g: int, r: int, d: int, generic: bool = False):
    """(records, d0, in_theorem_range) of the certificate; raises as the
    certificate did."""
    slope = Fraction(d, r)
    in_range = slope > 2 * g - 2
    records = []
    n_maximal = 0
    for s in enumerate_strata(r, d):
        codim = codim_stratum(g, s)
        bound = smallness_bound(g, s, generic=generic)
        maximal = s.is_maximal
        n_maximal += maximal
        if maximal != (codim == 0):
            raise VerificationError(
                f"codimension {codim} inconsistent with maximality of {s.label()}"
            )
        if in_range:
            quiver = build_fiber_quiver(g, s)
            if any(w <= 0 for w in quiver.framing):
                raise VerificationError(
                    f"non-positive framing {quiver.framing} for {s.label()} "
                    f"despite slope {slope} > {2 * g - 2}"
                )
        passes = bound == 0 if maximal else bound < 0
        records.append(
            StratumRecord(
                stratum=s, codim=codim, bound=bound, is_maximal=maximal, passes=passes
            )
        )
    if n_maximal != 1:
        raise VerificationError(f"expected exactly one maximal type, got {n_maximal}")
    return records, d_zero(g, r, d), in_range
