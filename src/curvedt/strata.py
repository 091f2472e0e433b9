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
slope).  The stratum has codimension (g-1) r^2 + 1 - sum_i ((g-1) r_i^2 + 1),
and the inequality chain for the framed bundle map pi: M_f(r,d) -> M(r,d)
boils down to a per-type rational bound:

    bound(s) = 1/2 + 1/2 * sum_i ( (m_i - 1) chi_ii + 1 - 2 m_i ),

with chi_ii = -(g-1) r_i^2 the Euler pairing of a vertex with itself.
The map is virtually small precisely when the bound is 0 on the maximal
type and strictly negative elsewhere; ``stratum_rows`` checks this
on every type of (r, d), a class of the domain of ``check_domain``, with
running sums along one walk of the types.  It is a theorem only for slopes
d/r > 2g-2: outside that range the arithmetic still runs, the report
notes the range, and the CLI prints the warning line.

The curve-specific value chi_ii <= 0 is the default; ``generic=True``
substitutes the weaker generic-quiver estimate chi_ii <= 1 to
cross-check that even the coarse inequality suffices.

The certificate passes on every class of the domain, by these lemmas:

* curve bound, g >= 1: each part adds (m_i - 1) chi_ii + 1 - 2 m_i <= -1
  to twice the bound, so the bound is 0 at the maximal type and at most
  -1/2 elsewhere;
* generic bound: (1 - sum_i m_i)/2 on every type;
* g >= 2: the codimension is at least 1 off the maximal type;
* with d/r = p/q in lowest terms, part (kq, kp) has framing
  k(p - (g-1)q), positive for every slope d/r > 2g-2 at g >= 1; at
  genus 0 the domain has rank 1 only, and (0, 1, -1) is its one class in
  range with framing 0, which raises.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd
from operator import attrgetter
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from .invariants import VerificationError, check_domain, class_label
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
    def is_maximal(self) -> bool:
        return len(self.parts) == 1 and self.parts[0][1] == 1

    def label(self) -> str:
        return " + ".join(f"{m}*({r_i},{d_i})" for (r_i, d_i), m in self.parts)


class FramedQuiver(NamedTuple):
    """Symmetric framed quiver of a stratum type: its genus, vertex ranks
    and framing; the arrows a_ij = delta_ij + (g-1) r_i r_j follow from them."""

    genus: int
    ranks: Tuple[int, ...]
    framing: Tuple[int, ...]


def _walk(g: int, r: int, d: int, generic: bool = False) -> Iterator[tuple]:
    """Every stratum type of (r, d), maximal first, then in lexicographic
    order of parts, with running sums: (type, rank, codimension drop,
    twice its bound, its parts of framing <= 0), the sums of its parts'
    ``_shares`` (twice the bound starts at 1).

    With d/r = p/q in lowest terms and t = gcd(r, d), a type is a multiset
    of (k, m) pairs, part ((kq, kp), m), with sum k*m = t.  Each pair's
    shares are computed once.  Tails of weight <= t // 2 are tabulated
    bottom up with their sums; the heads above them are walked depth
    first, and each type is one head plus one tail whose first pair comes
    at or after the head's last, so a type costs one concatenation and
    four additions.
    """
    if r < 1:
        raise DomainError(f"rank must be positive, got {r}")
    t = gcd(r, d)
    q, p, half = r // t, d // t, t // 2
    pairs = {}  # (k, m) -> ((part,), its three shares, framing <= 0), in lexicographic order
    for k in range(1, t + 1):
        for m in range(1, t // k + 1):
            part = ((k * q, k * p), m)
            rank, drop, twice, framing = _shares(g, part, generic)
            pairs[k, m] = ((part,), rank, drop, twice, framing <= 0)
    # tails[n]: the first pairs and the entries (parts, sums) of the multisets of weight n
    tails = [([(t + 1, 0)], [((), 0, 0, 0, 0)])]  # the empty tail comes after every pair
    for n in range(1, half + 1):
        tails.append(tuple(zip(*(
            (km, (head + parts, a + ra, b + rb, c + rc, e + re))
            for km, (head, a, b, c, e) in pairs.items() if km[0] * km[1] <= n
            for parts, ra, rb, rc, re in _after(tails[n - km[0] * km[1]], km)))))
    new = partial(tuple.__new__, StratumType)
    head, a, b, c, e = pairs[t, 1]
    yield new((head,)), a, b, 1 + c, e
    stack = [(t, 1, 1, (), 0, 0, 1, 0)]  # (weight left, first pair allowed, head, its sums)
    while stack:
        n, k0, m0, head, a, b, c, e = stack.pop()
        if n <= half:
            for parts, ra, rb, rc, re in _after(tails[n], (k0, m0)):
                yield new((head + parts,)), a + ra, b + rb, c + rc, e + re
            continue
        stack.extend(reversed([  # the maximal type, pair (t, 1), came first
            (n - k * m, k, m, head + pair, a + ra, b + rb, c + rc, e + re)
            for k in range(k0, min(n, t - 1) + 1) for m in range(m0 if k == k0 else 1, n // k + 1)
            for pair, ra, rb, rc, re in (pairs[k, m],)]))


def _after(tails: tuple, km: Tuple[int, int]) -> list:
    """The tails whose first pair comes at or after km: a suffix, in lexicographic order."""
    firsts, entries = tails
    return entries[bisect_left(firsts, km):]


def enumerate_strata(r: int, d: int) -> List[StratumType]:
    """All stratum types of (r, d): multisets of equal-slope parts.

    Every part slope must equal d/r exactly, so with d/r = p/q in lowest
    terms the parts are (kq, kp) for k >= 1 and the multiset condition
    is sum m_i k_i = r/q.  The types of the certificate's walk, maximal
    first, then by part list, already sorted and valid.
    """
    return [walked[0] for walked in _walk(0, r, d)]  # the types do not depend on the genus


def build_fiber_quiver(g: int, s: StratumType) -> FramedQuiver:
    """The framed quiver of a stratum type.

    Vertex i per part; a_ij = delta_ij + (g-1) r_i r_j arrows; framing
    w_i = d_i + (1-g) r_i.
    """
    ranks = tuple(r_i for (r_i, _), _ in s.parts)
    return FramedQuiver(g, ranks, tuple(_shares(g, part)[3] for part in s.parts))


def _shares(g: int, part: Part, generic: bool = False) -> Tuple[int, int, int, int]:
    """One part's shares: m_i r_i of the rank, (g-1) r_i^2 + 1 of the codimension,
    (m_i - 1) chi_ii + 1 - 2 m_i of twice the bound, and its framing d_i + (1-g) r_i."""
    (r_i, d_i), m_i = part
    square = (g - 1) * r_i * r_i
    chi_ii = 1 if generic else -square
    return m_i * r_i, square + 1, (m_i - 1) * chi_ii + 1 - 2 * m_i, d_i - (g - 1) * r_i


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
        return all(map(attrgetter("passes"), self.records))

    @property
    def verdict(self) -> str:
        return "PASS" if self.passes else "FAIL"


def report_head(g: int, r: int, d: int) -> Tuple[int, bool]:
    """What a report states before its records: d0 = d + (1-g) r - 1, the
    fiber dimension over the dense stratum, and whether d/r > 2g-2."""
    return d + (1 - g) * r - 1, d > (2 * g - 2) * r


def stratum_rows(g: int, r: int, d: int, generic: bool = False) -> Iterator[tuple]:
    """The certificate: one row (type, codimension, twice its bound, passes)
    per stratum type of (r, d), as the walk reaches it, maximal type first.

    Each type passes iff its bound is exactly 0 (maximal type) or
    strictly negative (every other type).  The slope hypothesis
    d/r > 2g-2 is advisory: outside it the arithmetic still runs, and
    ``report_head`` states the range, from which the CLI prints its
    warning line; no warning is raised.  Structural impossibilities
    (several maximal types, a negative codimension, a zero one off the
    dense stratum, a non-positive framing in range) raise instead of
    being reported, each before the row of the type at fault.  A type
    costs O(1) integer work: its rank, codimension drop and doubled bound
    are running sums of the walk.  With d/r = p/q, part (kq, kp) has
    framing k(p - (g-1)q), so the maximal type fails first if any does.
    A class outside the moduli domain of ``check_domain`` raises its
    DomainError, at the first row asked for.
    """
    check_domain(g, r, d, moduli=True)
    in_range = report_head(g, r, d)[1]
    n_maximal = 0
    for s, rank, drop, twice, nonpositive in _walk(g, r, d, generic):
        if nonpositive and in_range:  # one sign for all parts of a class: see above
            raise VerificationError(f"{class_label(g, r, d)}: non-positive framing "
                                    f"{build_fiber_quiver(g, s).framing} for {s.label()} "
                                    f"despite slope {Fraction(d, r)} > {2 * g - 2}")
        codim = (g - 1) * rank * rank + 1 - drop
        if codim < 0:
            raise VerificationError(f"{class_label(g, r, d)}: negative codimension {codim} "
                                    f"for stratum {s.label()} at genus {g}")
        maximal = s.is_maximal
        n_maximal += maximal
        if maximal != (codim == 0):
            raise VerificationError(
                f"{class_label(g, r, d)}: codimension {codim} inconsistent with "
                f"maximality of {s.label()}"
            )
        bound = _half(twice).numerator
        yield s, codim, twice, bound == 0 if maximal else bound < 0
    if n_maximal != 1:
        raise VerificationError(
            f"{class_label(g, r, d)}: expected exactly one maximal type, got {n_maximal}"
        )


def stratum_records(g: int, r: int, d: int, generic: bool = False) -> Iterator[StratumRecord]:
    """The rows of ``stratum_rows`` as records, each bound a shared ``Fraction``."""
    return (StratumRecord(s, c, _half(t), ok) for s, c, t, ok in stratum_rows(g, r, d, generic))


def certify_virtual_smallness(g: int, r: int, d: int, generic: bool = False) -> SmallnessReport:
    """The report of ``stratum_records`` over every stratum type of (r, d)."""
    records = tuple(stratum_records(g, r, d, generic))
    return SmallnessReport(g, r, d, *report_head(g, r, d), generic, records)
