"""Luna strata, fiber quivers, and the virtual-smallness certificate.

A polystable bundle on a genus-g curve decomposes as a direct sum of
pairwise non-isomorphic stable bundles E_i of rank r_i and degree d_i,
each taken with multiplicity m_i, all of one slope d/r.  The locus of
bundles with a fixed decomposition type is a Luna stratum of the moduli
space M(r,d); the dense (maximal) stratum is the single-part type with
multiplicity one.

Attached to a type is a symmetric framed quiver: one vertex per part,
a_ij = delta_ij + (g-1) r_i r_j arrows between vertices i and j, and
w_i = d_i + (1-g) r_i framing arrows (the section count of E_i for large
slope).  Its Euler form computes stratum codimensions, and the
inequality chain for the framed bundle map pi: M_f(r,d) -> M(r,d) boils
down to a per-type rational bound:

    bound(s) = 1/2 + 1/2 * sum_i ( (m_i - 1) chi_ii + 1 - 2 m_i ),

with chi_ii = -(g-1) r_i^2 the Euler pairing of a vertex with itself.
The map is virtually small precisely when the bound is 0 on the maximal
type and strictly negative elsewhere; ``certify_virtual_smallness``
checks this exhaustively over all types of (r, d).

The curve-specific value chi_ii <= 0 is the default; ``generic=True``
substitutes the weaker generic-quiver estimate chi_ii <= 1 (bound
1/2 - 1/2 sum_i m_i) to cross-check that even the coarse inequality
suffices.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, List, NamedTuple, Sequence, Tuple

from .invariants import VerificationError, class_label
from .ring import DomainError

Part = Tuple[Tuple[int, int], int]  # ((rank, degree), multiplicity)


class StratumType(NamedTuple("StratumType", [("parts", Tuple[Part, ...])])):
    """A Luna-stratum type: a multiset of ((r_i, d_i), m_i) parts.

    Parts are kept canonically sorted by (r_i, d_i, m_i).  Repeated
    (gamma, m) pairs are allowed and meaningful: two non-isomorphic
    stable bundles may share rank and degree, so {(gamma,1),(gamma,1)}
    and {(gamma,2)} are distinct types.  The constructor sorts and
    validates; ``_make((parts,))`` trusts parts already sorted and valid.
    """

    __slots__ = ()

    def __new__(cls, parts: Sequence[Part]) -> "StratumType":
        parts = tuple(sorted(parts))
        for (r_i, d_i), m_i in parts:
            if r_i < 1 or m_i < 1:
                raise DomainError(f"invalid part (({r_i},{d_i}),{m_i})")
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return len(self.parts)

    @property
    def rank(self) -> int:
        return sum(m * r_i for (r_i, _), m in self.parts)

    @property
    def degree(self) -> int:
        return sum(m * d_i for (_, d_i), m in self.parts)

    @property
    def is_maximal(self) -> bool:
        return len(self.parts) == 1 and self.parts[0][1] == 1

    def label(self) -> str:
        return " + ".join(f"{m}*({r_i},{d_i})" for (r_i, d_i), m in self.parts)


class FramedQuiver(NamedTuple):
    """Symmetric framed quiver of a stratum type; arrows are built on each use."""

    genus: int
    ranks: Tuple[int, ...]
    framing: Tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.ranks)

    @property
    def arrows(self) -> Tuple[Tuple[int, ...], ...]:
        """a_ij = delta_ij + (g-1) r_i r_j."""
        g1, ranks = self.genus - 1, self.ranks
        return tuple(
            tuple((i == j) + g1 * r_i * r_j for j, r_j in enumerate(ranks))
            for i, r_i in enumerate(ranks)
        )


def _pair_multisets(total: int, part: Callable = lambda k, m: (k, m)) -> List[tuple]:
    """Multisets of (k, m) pairs, k, m >= 1, with sum k*m = total.

    Each is a tuple of part(k, m) over its pairs in lexicographic order;
    the list is in lexicographic order of the pairs.  Built bottom up:
    entry i of row n lists the multisets of n whose pairs all come at or
    after the i-th pair, so each tuple is one concatenation.
    """
    pairs = [(k * m, part(k, m)) for k in range(1, total + 1) for m in range(1, total // k + 1)]
    rows = [[[()]] * (len(pairs) + 1)]
    for n in range(1, total + 1):
        row = [[]] * (len(pairs) + 1)
        for i in range(len(pairs) - 1, -1, -1):
            w, v = pairs[i]
            row[i] = row[i + 1] if w > n else [(v,) + tail for tail in rows[n - w][i]] + row[i + 1]
        rows.append(row)
    return rows[total][0]


def enumerate_strata(r: int, d: int) -> List[StratumType]:
    """All stratum types of (r, d): multisets of equal-slope parts.

    Every part slope must equal d/r exactly, so with d/r = p/q in lowest
    terms the parts are (kq, kp) for k >= 1 and the multiset condition
    is sum m_i k_i = r/q.  Returns canonically sorted types, maximal
    type first, then by part list.  (k, m) -> ((kq, kp), m) keeps the
    lexicographic order of the pair multisets, whose last is the maximal
    ((t, 1),), so the types need no sort.
    """
    if r < 1:
        raise DomainError(f"rank must be positive, got {r}")
    t = gcd(r, d)
    q, p = r // t, d // t
    types = [StratumType._make((parts,)) for parts in _pair_multisets(t, lambda k, m: ((k * q, k * p), m))]
    types.insert(0, types.pop())
    return types


def build_fiber_quiver(g: int, s: StratumType) -> FramedQuiver:
    """The framed quiver of a stratum type.

    Vertex i per part; a_ij = delta_ij + (g-1) r_i r_j arrows; framing
    w_i = d_i + (1-g) r_i.
    """
    ranks = tuple(r_i for (r_i, _), _ in s.parts)
    return FramedQuiver(g, ranks, tuple(_shares(g, part)[3] for part in s.parts))


def euler_form(q: FramedQuiver, m: Sequence[int], m2: Sequence[int]) -> int:
    """chi_Q(m, m') = sum_i m_i m'_i - sum_{ij} a_ij m_i m'_j."""
    if len(m) != q.n or len(m2) != q.n:
        raise DomainError(f"dimension vectors must have length {q.n}")
    diag = sum(a * b for a, b in zip(m, m2))
    cross = sum(
        a_ij * m_i * m2_j for row, m_i in zip(q.arrows, m) for a_ij, m2_j in zip(row, m2)
    )
    return diag - cross


def _shares(g: int, part: Part, generic: bool = False) -> Tuple[int, int, int, int]:
    """One part's shares: m_i r_i of the rank, (g-1) r_i^2 + 1 of the codimension,
    (m_i - 1) chi_ii + 1 - 2 m_i of twice the bound, and its framing d_i + (1-g) r_i."""
    (r_i, d_i), m_i = part
    square = (g - 1) * r_i * r_i
    chi_ii = 1 if generic else -square
    return m_i * r_i, square + 1, (m_i - 1) * chi_ii + 1 - 2 * m_i, d_i - (g - 1) * r_i


def codim_stratum(g: int, s: StratumType) -> int:
    """Complex codimension of the stratum in M(r, d).

    (g-1) r^2 + 1 - sum_i ((g-1) r_i^2 + 1) over the n parts, where r is
    the total rank.  Non-negative, zero exactly at the maximal type;
    a negative value means the formula was misapplied and raises.
    """
    rank = sum(_shares(g, part)[0] for part in s.parts)
    codim = (g - 1) * rank * rank + 1 - sum(_shares(g, part)[1] for part in s.parts)
    if codim < 0:
        raise VerificationError(
            f"{class_label(g, rank, s.degree)}: negative codimension {codim} "
            f"for stratum {s.label()} at genus {g}"
        )
    return codim


def d_zero(g: int, r: int, d: int) -> int:
    """Fiber dimension of the framed map over the dense stratum.

    d0 = (framing dimension of the full class) - 1 = d + (1-g) r - 1.
    """
    return d + (1 - g) * r - 1


def smallness_bound(g: int, s: StratumType, generic: bool = False) -> Fraction:
    """Upper bound for dim(fiber) - d0 - codim/2 on one stratum type.

    1/2 + 1/2 sum_i ((m_i - 1) chi_ii + 1 - 2 m_i) with the curve value
    chi_ii = -(g-1) r_i^2, or chi_ii = 1 (the generic symmetric-quiver
    estimate) when generic=True.  Virtual smallness needs 0 at the
    maximal type and < 0 elsewhere.  Equal values share one Fraction.
    """
    return _half(1 + sum(_shares(g, part, generic)[2] for part in s.parts))


_half = lru_cache(maxsize=None)(lambda twice: Fraction(twice, 2))


class StratumRecord(NamedTuple):
    """One certified row: a type with its codimension, bound, verdict."""

    stratum: StratumType
    codim: int
    bound: Fraction
    passes: bool

    @property
    def is_maximal(self) -> bool:
        return self.stratum.is_maximal


class SmallnessReport(NamedTuple):
    """Certificate that the framed bundle map is virtually small."""

    genus: int
    rank: int
    degree: int
    d0: int
    in_theorem_range: bool
    generic: bool
    records: Tuple[StratumRecord, ...]

    @property
    def passes(self) -> bool:
        return all(rec.passes for rec in self.records)

    @property
    def verdict(self) -> str:
        return "PASS" if self.passes else "FAIL"


def certify_virtual_smallness(
    g: int, r: int, d: int, generic: bool = False
) -> SmallnessReport:
    """Certify the smallness inequality over every stratum type of (r, d).

    Each type passes iff its bound is exactly 0 (maximal type) or
    strictly negative (every other type).  The slope hypothesis
    d/r > 2g-2 is advisory: outside it the arithmetic still runs, a
    warning is emitted, and the report notes the range.  Structural
    impossibilities (several maximal types, zero codimension off the
    dense stratum, non-positive framing in range) raise instead of
    being reported.  A type costs one pass of integer sums over its
    parts, whose shares are computed once per part and call.
    """
    slope = Fraction(d, r)
    in_range = slope > 2 * g - 2
    if not in_range:
        warnings.warn(
            f"slope {slope} is not above {2 * g - 2}: smallness is certified "
            "arithmetic only, outside the theorem's hypothesis",
            stacklevel=2,
        )
    records = []
    n_maximal = 0
    table = {}  # part -> _shares(g, part, generic), filled the first time it is seen
    for s in enumerate_strata(r, d):
        rank = drop = 0
        twice = low = 1  # low: the least framing, if below 1
        for part in s.parts:
            shares = table.get(part) or table.setdefault(part, _shares(g, part, generic))
            rank_i, drop_i, twice_i, framing_i = shares
            rank += rank_i
            drop += drop_i
            twice += twice_i
            if framing_i < low:
                low = framing_i
        codim = (g - 1) * rank * rank + 1 - drop
        if codim < 0:
            codim_stratum(g, s)  # raises, naming the class and the stratum
        bound = _half(twice)
        maximal = s.is_maximal
        n_maximal += maximal
        if maximal != (codim == 0):
            raise VerificationError(
                f"{class_label(g, r, d)}: codimension {codim} inconsistent with "
                f"maximality of {s.label()}"
            )
        if in_range and low <= 0:
            raise VerificationError(
                f"{class_label(g, r, d)}: non-positive framing {build_fiber_quiver(g, s).framing} "
                f"for {s.label()} despite slope {slope} > {2 * g - 2}"
            )
        passes = bound.numerator == 0 if maximal else bound.numerator < 0
        records.append(StratumRecord(s, codim, bound, passes))
    if n_maximal != 1:
        raise VerificationError(
            f"{class_label(g, r, d)}: expected exactly one maximal type, got {n_maximal}"
        )
    return SmallnessReport(
        genus=g,
        rank=r,
        degree=d,
        d0=d_zero(g, r, d),
        in_theorem_range=in_range,
        generic=generic,
        records=tuple(records),
    )
