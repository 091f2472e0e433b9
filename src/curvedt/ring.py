"""Exact arithmetic in Q[u^(1/2), v^(1/2), u^(-1/2), v^(-1/2)] with cyclotomic denominators.

Conventions used throughout the package:

* Exponents are stored doubled, so the monomial key (a, b) stands for
  u^(a/2) * v^(b/2) and every key is a plain pair of ints.
* L denotes the Lefschetz class uv.  Its formal square root carries a
  sign: L^(1/2) = -(uv)^(1/2).  The monomial L^(e/2) is therefore the
  key (e, e) with coefficient (-1)^e, which is what half_lefschetz
  builds.  With this convention the Adams operation, which just scales
  exponent keys by n, automatically satisfies
  psi_n(L^(1/2)) = (-1)^(n-1) L^(n/2).
* Denominators are products of factors (1 - L^k), kept unexpanded as a
  multiset of the integers k; a RingElem is a numerator over such a
  multiset, never reduced.  Multiplication multiplies numerators and
  concatenates multisets; a sum (and equality, as a zero difference)
  brings every numerator to the lcm of the scales and to the
  multiset-wise maximum denominator, all in integers.  A small or sparse
  sum does this on a dict of terms; one with at least _PACK_SHIFTS term
  shifts into a dense box packs each numerator into one int, makes each
  missing (1 - L^k) one shift and subtract, adds the ints and unpacks the
  total once.

All arithmetic is exact and fraction-free, as in FLINT's fmpq_poly: a
polynomial stores nonzero int coefficients over one positive int scale.
The public constructor takes int keys and int or Fraction coefficients
only (else DomainError) and clears denominators once; every operation
works on the ints and carries the scale unreduced (a product multiplies
the scales, a Fraction scalar p/q multiplies the ints by p and the scale
by q).  A value leaves the ring through RingElem.to_polynomial: one exact
division by the whole denominator over dense lines (exact_divide_cyclo),
then the scale reduced by its gcd with the ints.  ``terms`` is the canonical
view: an int where a coefficient is integral, else a Fraction.
LaurentPoly, SymPoly (Z[s, (uv)^(+-1/2)], s = u + v) and UniPoly (one
variable y, the image of u = v = y, keyed by the doubled exponent of y)
share one kernel, _SparsePoly, and differ only in their monomial type.
SymPoly keys are LaurentPoly's under the injective ring map s -> (1, -1),
(uv)^(1/2) -> (1, 1): s^i (uv)^(e/2) is (e + i, e - i), so an L-power has
one key in both, and division and sums run on both unchanged; its
products take the axes (a - b, a + b) = (2i, 2e), an s-degree x L box.
A small product multiplies on the keys; otherwise each operand packs into
one int with a byte-aligned slot per point of the product's exponent box,
and a few-term factor adds shifted multiples of the other, or a dense
product is one big-int product (Kronecker substitution, D. Harvey,
arXiv:0712.4046).  One codec, _pack and _unpack, serves products and
packed sums at every slot width: a slot of w bytes travels as ceil(w / 8)
native 64-bit words, moved by strided byte slices and stored or read
through a memoryview, so no Python code runs per slot.  Packed slots are
biased by half of their range, so that none borrows from the next.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from itertools import accumulate, compress, islice, repeat
from math import comb, gcd, lcm
from operator import and_, lshift, or_, rshift, setitem
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

Monomial = Tuple[int, int]
Scalar = Union[int, Fraction]

# Multiply on the keys, with no exponent box, up to this many coefficient pairs:
# `verify --json` took 153, 150, 149 and 147 ms at 64, 128, 256 and 384 pairs, and
# from 400 on, two 20-term diagonal operands would no longer pack.
_KEY_PAIRS = 256
# Pack a product only with at least this many coefficient pairs per slot of its
# exponent box; below that the dict loop measured faster than the big-int product.
_PAIRS_PER_SLOT = 4
# A smaller operand of at most this many terms adds c * (the packed larger one << slot)
# per term, in a box of at most two slots per pair that is sparse, or dense and spanned
# at four slots or more per term.  On 1,008 products of `verify` and `hdt` this took
# 553 ms, the parent's paths 907 ms; from about 200 terms on, Kronecker products win.
_SHIFT_TERMS = 64
# Pack a sum over a common denominator only from this many term shifts on (the sum
# over its items of terms * missing factors), and only into a box of at most one
# slot per shift; below either the dict loop measured faster.
_PACK_SHIFTS = 2000
# The Kronecker codec's constants.  _FLIP maps a little-endian byte offset within a
# 64-bit word to its native offset, and _WORD masks one word.  _TOGGLE flips a
# byte's top bit, and _EXTEND maps the top byte of a biased slot to the byte
# that sign-extends the slot.
_FLIP = 0 if sys.byteorder == "little" else 7
_WORD = (1 << 64) - 1
_TOGGLE = bytes(range(128, 256)) + bytes(range(128))
_EXTEND = b"\xff" * 128 + bytes(128)


class NotDivisibleError(ArithmeticError):
    """Raised when an exact division by (1 - L^k) leaves a remainder."""


class DomainError(ValueError):
    """Raised when an argument lies outside the domain of a library function."""


def _sign(e: int) -> int:
    return -1 if e % 2 else 1


def _canon(c: Scalar) -> Scalar:
    """The canonical coefficient: an int when c is integral, else a Fraction."""
    return c.numerator if c.denominator == 1 else c


def _accumulate(out: Dict, pairs: Iterable) -> Dict:
    """Add each (key, nonzero int) pair into out; zero sums drop out."""
    get = out.get
    for m, c in pairs:
        s = get(m, 0) + c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def _integral(coeffs: List[Scalar]) -> Tuple[List[int], int]:
    """coeffs scaled by the lcm of their denominators, and that lcm."""
    if all(type(c) is int for c in coeffs):
        return coeffs, 1
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _bias(box: int, width: int) -> int:
    """Half of the slot range, 2^(8 * width - 1), in each of box slots."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * box, "little")


def _pack(slots: List[int], coeffs: List[int], width: int) -> int:
    """sum c * 2^(8 * width * slot), given every |c| < 2^(8 * width - 1).

    Each c is staged in two's complement over k = ceil(width / 8) native
    64-bit words per slot; strided slices compact the slots to width bytes,
    flipping each top bit adds half of the slot range, and one subtraction
    takes that bias off again.
    """
    k = -(-width // 8)
    box = max(slots) + 1
    staged = bytearray(8 * k * box)
    low, top = memoryview(staged).cast("Q"), memoryview(staged).cast("q")
    # each any() drains one map of word stores (every store returns None)
    for i in range(k - 1):
        any(map(setitem, repeat(low[i::k]), slots, map(and_, coeffs, repeat(_WORD))))
        coeffs = list(map(rshift, coeffs, repeat(64)))
    any(map(setitem, repeat(top[k - 1::k]), slots, coeffs))
    del low, top
    raw = bytearray(box * width)
    for j in range(width):
        raw[j::width] = staged[j ^ _FLIP::8 * k]
    del staged
    raw[width - 1::width] = raw[width - 1::width].translate(_TOGGLE)
    return int.from_bytes(raw, "little") - _bias(box, width)


def _unpack(n: int, box: int, width: int) -> Tuple[List[int], List[int]]:
    """The nonzero slots of n = sum c_k * 2^(8 * width * k), 0 <= k < box, as
    (slot list, coefficient list), given every |c_k| < 2^(8 * width - 1).

    Adding half of the slot range to each slot makes all slots nonnegative,
    so no slot borrows from the next; flipping each top bit back leaves c_k
    in two's complement.  Strided slices sign-extend each slot to k =
    ceil(width / 8) native 64-bit words, read in one go: the top word
    signed, shifted over the lower ones, is c_k; a slot is empty when all
    its words are 0, and only the others are combined.
    """
    k = -(-width // 8)
    raw = (n + _bias(box, width)).to_bytes(box * width, "little")
    wide = bytearray(8 * k * box)
    for j in range(width - 1):
        wide[j ^ _FLIP::8 * k] = raw[j::width]
    high = raw[width - 1::width]
    del raw
    wide[(width - 1) ^ _FLIP::8 * k] = high.translate(_TOGGLE)
    high = high.translate(_EXTEND)
    for j in range(width, 8 * k):
        wide[j ^ _FLIP::8 * k] = high
    words = memoryview(wide).cast("q").tolist()
    del wide
    nonzero = islice(words, k - 1, None, k)
    for i in range(k - 1):
        nonzero = map(or_, nonzero, islice(words, i, None, k))
    nonzero = list(nonzero)
    values = compress(islice(words, k - 1, None, k), nonzero)
    for i in range(k - 2, -1, -1):
        values = map(or_, map(lshift, values, repeat(64)),
                     map(and_, compress(islice(words, i, None, k), nonzero), repeat(_WORD)))
    return list(compress(range(box), nonzero)), list(values)


def _product(a: Dict, b: Dict, columns, from_columns) -> Dict:
    """The product of two nonempty dicts of int coefficients, by operand shape.

    ``columns`` maps a key list to one exponent list per variable, and
    ``from_columns`` maps back.  A one-term operand, or at most _KEY_PAIRS
    coefficient pairs, multiplies on the keys.  Otherwise a term's slot is
    its point in the product's exponent box: exponents are shifted to start
    at zero and divided by their common step per variable, on one axis for
    operands on the diagonal a = b (on two, the box is the square of its
    extent).  A few-term factor (_SHIFT_TERMS) sums c * (y << its slot), y
    the other operand packed; a dense box is one Kronecker product, and a
    sparse one takes the dict loop.
    """
    a, b = (b, a) if len(a) > len(b) else (a, b)
    ka, kb, ca, cb = list(a), list(b), a.values(), b.values()
    xs_a, xs_b = columns(ka), columns(kb)
    pairs = len(ka) * len(kb)
    if len(ka) == 1 or pairs <= _KEY_PAIRS:
        keys = from_columns([[e + x for e in ea for x in eb] for ea, eb in zip(xs_a, xs_b)])
        terms = zip(keys, [c * x for c in ca for x in cb])
        return dict(terms) if len(ka) == 1 else _accumulate({}, terms)
    n_vars = len(xs_a)
    if xs_a[1:] == xs_a[:-1] and xs_b[1:] == xs_b[:-1]:
        xs_a, xs_b = xs_a[:1], xs_b[:1]
    axes = []  # (low exponent of the product, step, stride, extent), last axis first
    slots_a, slots_b = [0] * len(ka), [0] * len(kb)
    box = 1
    for xa, xb in zip(reversed(xs_a), reversed(xs_b)):
        lo_a, lo_b = min(xa), min(xb)
        step = gcd(*(x - lo_a for x in xa), *(x - lo_b for x in xb)) or 1
        slots_a = [s + (x - lo_a) // step * box for s, x in zip(slots_a, xa)]
        slots_b = [s + (x - lo_b) // step * box for s, x in zip(slots_b, xb)]
        extent = (max(xa) - lo_a + max(xb) - lo_b) // step + 1
        axes.append((lo_a + lo_b, step, box, extent))
        box *= extent
    del xs_a, xs_b  # free the exponent lists before the product's peak
    dense = box * _PAIRS_PER_SLOT <= pairs
    shift = len(ka) <= _SHIFT_TERMS and box <= 2 * pairs and (not dense or max(slots_a) >= 4 * len(ka))
    if dense or shift:
        width = (max(c.bit_length() for c in ca) + max(c.bit_length() for c in cb)
                 + len(ka).bit_length() + 8) // 8
        y = _pack(slots_b, cb, width)
        y = sum([c * y << 8 * width * s for s, c in zip(slots_a, ca)]) if shift else y * _pack(slots_a, ca, width)
        ks, cs = _unpack(y, box, width)
    else:
        out: Dict[int, int] = {}
        for t, c in zip(slots_a, ca):
            _accumulate(out, zip([t + s for s in slots_b], [c * x for x in cb]))
        ks, cs = list(out), list(out.values())
    keys = from_columns([[lo + step * (k // stride % extent) for k in ks]
                         for lo, step, stride, extent in reversed(axes)] * (n_vars // len(axes)))
    return dict(zip(keys, cs))


class _SparsePoly:
    """Sparse polynomial: the sum over monomial keys m of _ints[m] / _scale.

    This is the one arithmetic kernel.  The nonzero int coefficients share
    one positive int scale that no operation reduces, so equal polynomials
    may store different ints: ``terms``, the canonical read-only view (the
    int dict itself at scale 1), is what equality compares.  A subclass
    fixes the monomial type by declaring ``_UNIT`` (the key of the
    constant 1), ``_key`` (validation of an input key) and
    ``_columns``/``_from_columns`` (a key list as one exponent list per
    variable, and back).  Operands of two different subclasses never mix:
    equality is False and +, -, * raise TypeError.

    The int dict is treated as immutable after construction; operations
    always build fresh instances.
    """

    __slots__ = ("_ints", "_scale")

    def __init__(self, terms: Mapping | None = None):
        clean: Dict = {}
        if terms:
            key = self._key
            for mon, c in terms.items():
                if type(c) is not int and type(c) is not Fraction:
                    raise DomainError(f"coefficient {c!r} is neither an int nor a Fraction")
                c = _canon(c)
                if c:
                    clean[key(mon)] = c
        ints, self._scale = _integral(list(clean.values()))
        self._ints = clean if self._scale == 1 else dict(zip(clean, ints))

    @classmethod
    def _raw(cls, ints: Dict, scale: int = 1):
        # internal fast path: caller guarantees nonzero ints and a positive scale
        p = cls.__new__(cls)
        p._ints, p._scale = ints, scale
        return p

    @property
    def terms(self) -> Dict:
        s = self._scale
        return self._ints if s == 1 else {m: _canon(Fraction(c, s)) for m, c in self._ints.items()}

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({cls._UNIT: 1})

    def is_zero(self) -> bool:
        return not self._ints

    def __bool__(self) -> bool:
        return bool(self._ints)

    def __len__(self) -> int:
        return len(self._ints)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, type(self)):
            return self.terms == other.terms
        return NotImplemented

    def __neg__(self):
        return self._raw({m: -c for m, c in self._ints.items()}, self._scale)

    def _plus(self, other, sign: int):
        """self + sign * other, the ints brought to the lcm of the two scales."""
        if not isinstance(other, type(self)):
            return NotImplemented
        scale = lcm(self._scale, other._scale)
        f, g = scale // self._scale, sign * (scale // other._scale)
        out = dict(self._ints) if f == 1 else {m: c * f for m, c in self._ints.items()}
        pairs = other._ints.items() if g == 1 else ((m, c * g) for m, c in other._ints.items())
        return self._raw(_accumulate(out, pairs), scale)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            if not self._ints or not other._ints:
                return self.zero()
            ints = _product(self._ints, other._ints, self._columns, self._from_columns)
            return self._raw(ints, self._scale * other._scale)
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            if not p:
                return self.zero()
            ints = self._ints if p == 1 else {m: c * p for m, c in self._ints.items()}
            return self._raw(ints, self._scale * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are not defined for polynomials")
        result = self.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __repr__(self) -> str:
        items = ", ".join(f"{m}: {c}" for m, c in sorted(self.terms.items()))
        return f"{type(self).__name__}({{{items}}})"


class LaurentPoly(_SparsePoly):
    """Laurent polynomial in u^(1/2), v^(1/2): keys are doubled exponent pairs."""

    __slots__ = ()
    _UNIT = (0, 0)

    @staticmethod
    def _key(mon) -> Monomial:
        if type(mon) is tuple and len(mon) == 2 and type(mon[0]) is int and type(mon[1]) is int:
            return mon
        raise DomainError(f"monomial key {mon!r} is not a pair of ints")

    _columns = _from_columns = staticmethod(lambda rows: list(zip(*rows)))  # a transpose

    def adams(self, n: int) -> "LaurentPoly":
        """Adams operation: scale every exponent key by n (coefficients fixed)."""
        if n < 1:
            raise DomainError("Adams operations are indexed by n >= 1")
        return LaurentPoly._raw({(n * a, n * b): c for (a, b), c in self._ints.items()}, self._scale)

    def dual(self) -> "LaurentPoly":
        """Substitute u -> 1/u, v -> 1/v (negate all exponents)."""
        return LaurentPoly._raw({(-a, -b): c for (a, b), c in self._ints.items()}, self._scale)


class UniPoly(_SparsePoly):
    """Univariate Laurent polynomial in y, exponents stored doubled."""

    __slots__ = ()
    _UNIT = 0

    @staticmethod
    def _key(e) -> int:
        if type(e) is int:
            return e
        raise DomainError(f"monomial key {e!r} is not an int")

    _columns = staticmethod(lambda keys: [keys])
    _from_columns = staticmethod(lambda columns: columns[0])


class SymPoly(_SparsePoly):
    """Polynomial in s = u + v and (uv)^(+-1/2): the key (e + i, e - i) is s^i (uv)^(e/2), i >= 0."""

    __slots__ = ()
    _UNIT = (0, 0)

    @staticmethod
    def _key(mon) -> Monomial:
        a, b = LaurentPoly._key(mon)
        if a < b or (a - b) % 2:
            raise DomainError(f"monomial key {mon!r} is not s^i (uv)^(e/2) with i >= 0")
        return mon

    _columns = staticmethod(lambda keys: [[a - b for a, b in keys], [a + b for a, b in keys]])
    _from_columns = staticmethod(lambda columns: [((y + x) // 2, (y - x) // 2) for x, y in zip(*columns)])

    def adams(self, n: int) -> "SymPoly":
        """psi_n: (uv)^(e/2) -> (uv)^(ne/2), and s -> u^n + v^n, the Lucas polynomial
        V_n (V_0 = 2, V_1 = s, V_n = s V_(n-1) - uv V_(n-2)), by Horner in s."""
        if n < 1:
            raise DomainError("Adams operations are indexed by n >= 1")
        rows: Dict[int, Dict] = {}
        for (a, b), c in self._ints.items():
            rows.setdefault((a - b) // 2, {})[n * (a + b) // 2, n * (a + b) // 2] = c
        s, uv = SymPoly._raw({(1, -1): 1}), SymPoly._raw({(2, 2): 1})
        v_prev, v = 2 * SymPoly.one(), s
        for _ in range(n - 1):
            v_prev, v = v, s * v - uv * v_prev
        out = SymPoly.zero()
        for i in range(max(rows, default=0), -1, -1):
            out = out * v + SymPoly._raw(rows.get(i, {}), self._scale)
        return out

    def to_laurent(self) -> LaurentPoly:
        """s = u + v: s^i (uv)^(e/2) = sum_j C(i, j) u^(j + e/2) v^(i - j + e/2)."""
        out: Dict[Monomial, int] = {}
        for (a, b), c in self._ints.items():
            i, e = (a - b) // 2, (a + b) // 2
            _accumulate(out, (((e + 2 * j, e + 2 * i - 2 * j), c * comb(i, j)) for j in range(i + 1)))
        return LaurentPoly._raw(out, self._scale)


def half_lefschetz(e2: int, kind=LaurentPoly) -> _SparsePoly:
    """L^(e2/2) under the convention L^(1/2) = -(uv)^(1/2), as a LaurentPoly or a SymPoly."""
    return kind._raw({(e2, e2): _sign(e2)})


def lefschetz(k: int) -> LaurentPoly:
    """L^k = (uv)^k."""
    return half_lefschetz(2 * k)


def exact_divide_cyclo(p: _SparsePoly, *ks: int) -> _SparsePoly:
    """Divide p by every (1 - L^k) exactly, raising NotDivisibleError on failure.

    Multiplying by (1 - L^k) moves each key (a, b) to (a + 2k, b + 2k), so
    it keeps every line a - b = delta to itself.  Each line is laid out once
    as a dense int row over a, in steps of the gcd of its offsets and every
    2k, so 2k is s entries.  Per factor, the quotient is the running sums
    along every s-th entry, less the last s: the remainder, which must be 0.
    The error names the first factor that fails, as dividing one by one would.
    """
    if any(k < 1 for k in ks):
        raise DomainError("cyclotomic factors are indexed by k >= 1")
    if not ks:
        return p
    lines: Dict[int, Dict[int, int]] = {}
    for (a, b), c in p._ints.items():
        lines.setdefault(a - b, {})[a] = c
    out: Dict[Monomial, int] = {}
    failed = len(ks)  # the index of the first factor that fails on some line
    for delta, line in lines.items():
        lo = min(line)
        step = gcd(*(a - lo for a in line), *(2 * k for k in ks))
        row = [line.get(a, 0) for a in range(lo, max(line) + 1, step)]
        for i, k in enumerate(ks[:failed]):
            s = 2 * k // step
            for j in range(s):
                row[j::s] = accumulate(row[j::s])
            if any(row[-s:]):  # row[0], the lowest coefficient, is never 0
                failed = i
                break
            del row[-s:]
        else:
            out.update(((a, a - delta), c) for a, c in zip(range(lo, lo + step * len(row), step), row) if c)
    if failed < len(ks):
        raise NotDivisibleError(f"not divisible by 1 - L^{ks[failed]}")
    return type(p)._raw(out, p._scale)


class CycloDenominator:
    """Multiset of positive integers k, each standing for one factor (1 - L^k);
    immutable, equal and hashed by its sorted factors."""

    __slots__ = ("factors",)

    def __init__(self, factors: Tuple[int, ...] = ()):
        factors = tuple(sorted(factors))
        if any(k < 1 for k in factors):
            raise DomainError("denominator factors must be positive integers")
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycloDenominator):
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"CycloDenominator(factors={self.factors!r})"

    def __reduce__(self):
        return CycloDenominator, (self.factors,)

    @classmethod
    def _raw(cls, factors: Tuple[int, ...]) -> "CycloDenominator":
        d = object.__new__(cls)  # internal fast path: factors are sorted and positive
        object.__setattr__(d, "factors", factors)
        return d

    @classmethod
    def of(cls, *ks: int) -> "CycloDenominator":
        return cls(tuple(ks))

    def __mul__(self, other: "CycloDenominator") -> "CycloDenominator":
        return CycloDenominator._raw(tuple(sorted(self.factors + other.factors)))

    def lcm(self, other: "CycloDenominator") -> "CycloDenominator":
        """Multiset-wise maximum of multiplicities, by merging the sorted factors."""
        a, b = self.factors, other.factors
        out, i, j = [], 0, 0
        while i < len(a) and j < len(b):
            x, y = a[i], b[j]
            out.append(min(x, y))
            i, j = i + (x <= y), j + (y <= x)
        return CycloDenominator._raw(tuple(out) + a[i:] + b[j:])

    def diff(self, other: "CycloDenominator") -> Tuple[int, ...]:
        """Multiset difference self - other, by merging the sorted factors; other
        must be contained in self."""
        b, j, out = other.factors, 0, []
        for x in self.factors:
            if j < len(b) and b[j] == x:
                j += 1
            else:
                out.append(x)
        if j < len(b):
            raise DomainError("denominator is not a sub-multiset")
        return tuple(out)

    def adams(self, n: int) -> "CycloDenominator":
        if n < 1:
            raise DomainError("Adams operations are indexed by n >= 1")
        return CycloDenominator._raw(tuple(n * k for k in self.factors))

    def expand(self) -> LaurentPoly:
        """The product of the factors as an actual polynomial."""
        return _sum_elem([RingElem.one(), RingElem(LaurentPoly.zero(), self)]).num


def _packed_sum(numerators: List[Dict], scaled: List[List[int]], missing: List[Tuple[int, ...]],
                lcd: CycloDenominator) -> Optional[Dict]:
    """sum_i numerators_i * prod_{k in missing_i} (1 - L^k) by Kronecker packing,
    or None when the sum is small or its exponent box sparse.

    A key (a, b) goes to its point in the box with a - b on the fast axis and
    a + b on the slow one, each shifted to start at zero and divided by its
    common step.  Multiplying by (1 - L^k) keeps a - b and raises a + b by
    4k, so on a packed numerator y it is y - (y << bits).  Each factor at most
    doubles the largest |coefficient|, so sum_i max|c_i| * 2^#missing_i, plus
    a sign bit, bounds every slot of the total.
    """
    live = [(t, cs, ks) for t, cs, ks in zip(numerators, scaled, missing) if cs]
    shifts = sum(len(cs) * len(ks) for _, cs, ks in live)
    if shifts < _PACK_SHIFTS:
        return None
    diffs = [{a - b for a, b in t} for t, _, _ in live]
    sums = [{a + b for a, b in t} for t, _, _ in live]
    lo_d, lo_s = min(map(min, diffs)), min(map(min, sums))
    step_d = gcd(*(d - lo_d for ds in diffs for d in ds)) or 1
    step_s = gcd(*(s - lo_s for ss in sums for s in ss), *(4 * k for k in lcd.factors))
    ext_d = (max(map(max, diffs)) - lo_d) // step_d + 1
    hi_s = max(max(ss) + 4 * sum(ks) for ss, (_, _, ks) in zip(sums, live))
    box = ext_d * ((hi_s - lo_s) // step_s + 1)
    if box > shifts:
        return None
    bound = sum(max(map(abs, cs)) << len(ks) for _, cs, ks in live)
    width = (bound.bit_length() + 8) // 8
    # the slot (a - b - lo_d) / step_d + ext_d * (a + b - lo_s) / step_s, as (a p + b q - r) / m
    m = step_d * step_s
    p, q = step_s + ext_d * step_d, ext_d * step_d - step_s
    r = lo_d * step_s + lo_s * ext_d * step_d
    total = 0
    for terms, cs, ks in live:
        y = _pack([(a * p + b * q - r) // m for a, b in terms], cs, width)
        for k in ks:
            y -= y << 8 * width * ext_d * (4 * k // step_s)
        total += y
    out = {}
    for k, c in zip(*_unpack(total, box, width)):
        s, d = divmod(k, ext_d)
        s, d = lo_s + step_s * s, lo_d + step_d * d
        out[(s + d) // 2, (s - d) // 2] = c
    return out


def _cleared_sum(items: List["RingElem"], signs: Iterable[int]) -> Tuple[Dict, int, CycloDenominator]:
    """(N, D, lcd) with sum_i sign_i * item_i = N / (D * lcd).

    lcd is the multiset-max denominator, D the lcm of the items' scales and
    N a dict of nonzero ints.  Each item's ints are brought to D once; each
    missing (1 - L^k) is then an integer shift-and-subtract, L^k being the
    key (2k, 2k) with coefficient +1: on packed ints when _packed_sum takes
    the sum, else on term dicts.  This is the only place a numerator meets
    a cyclotomic factor.
    """
    lcd = items[0].den
    for x in items[1:]:
        lcd = lcd.lcm(x.den)
    nums = [x.num for x in items]
    if any(type(p) is not type(nums[0]) for p in nums):
        raise TypeError("a sum of ring elements mixes two numerator classes")
    den = lcm(*(p._scale for p in nums))
    scales = [sign * (den // p._scale) for sign, p in zip(signs, nums)]
    scaled = [list(p._ints.values()) if f == 1 else [c * f for c in p._ints.values()]
              for p, f in zip(nums, scales)]
    missing = [lcd.diff(x.den) for x in items]
    packed = _packed_sum([p._ints for p in nums], scaled, missing, lcd)
    if packed is not None:
        return packed, den, lcd
    total: Dict[Monomial, int] = {}
    for p, cs, ks in zip(nums, scaled, missing):
        terms = dict(zip(p._ints, cs))
        get = terms.get
        for k in ks:
            s = 2 * k
            for (a, b), c in list(terms.items()):
                terms[a + s, b + s] = get((a + s, b + s), 0) - c
        if not total:
            total = terms
            continue
        get = total.get
        for m, c in terms.items():
            total[m] = get(m, 0) + c
    return {m: c for m, c in total.items() if c}, den, lcd


class RingElem:
    """num / prod_k (1 - L^k), never reduced; equal when the difference's numerator is 0.

    The numerator is a LaurentPoly (as in zero and one) or a SymPoly, held
    fraction-free: its ints over its scale.  Products multiply numerators
    (ints and scales) and concatenate the multisets; sums bring the ints to
    the lcm of the scales (see _cleared_sum) and raise TypeError over two
    numerator classes; to_polynomial divides the ints by every (1 - L^k) in
    one pass, then reduces by the scale once.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: _SparsePoly, den: CycloDenominator = CycloDenominator()):
        self.num, self.den = num, den

    @classmethod
    def zero(cls) -> "RingElem":
        return cls(LaurentPoly.zero())

    @classmethod
    def one(cls) -> "RingElem":
        return cls(LaurentPoly.one())

    def is_zero(self) -> bool:
        return not self.num._ints

    def __neg__(self) -> "RingElem":
        return RingElem(-self.num, self.den)

    def __add__(self, other: "RingElem") -> "RingElem":
        if not isinstance(other, RingElem):
            return NotImplemented
        return _sum_elem([self, other])

    def __sub__(self, other: "RingElem") -> "RingElem":
        if not isinstance(other, RingElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["RingElem", _SparsePoly, Scalar]) -> "RingElem":
        if isinstance(other, RingElem):
            return RingElem(self.num * other.num, self.den * other.den)
        if isinstance(other, (_SparsePoly, int, Fraction)):
            return RingElem(self.num * other, self.den)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        """self - other has a zero numerator over the multiset-max denominator."""
        if not isinstance(other, RingElem):
            return NotImplemented
        return not _cleared_sum([self, other], (1, -1))[0]

    __hash__ = None  # mathematical equality is not hash-compatible

    def __repr__(self) -> str:
        return f"RingElem(num={self.num!r}, den={self.den!r})"

    def adams(self, n: int) -> "RingElem":
        return RingElem(self.num.adams(n), self.den.adams(n))

    def to_polynomial(self) -> _SparsePoly:
        """Divide out every denominator factor, then reduce by the scale; NotDivisibleError if a factor fails."""
        out = exact_divide_cyclo(self.num, *self.den.factors)
        g = gcd(out._scale, *out._ints.values())
        if g == 1:
            return out
        return type(out)._raw({m: c // g for m, c in out._ints.items()}, out._scale // g)


def _sum_elem(items: List[RingElem]) -> RingElem:
    total, den, lcd = _cleared_sum(items, [1] * len(items))
    return RingElem(type(items[0].num)._raw(total, den), lcd)


def ring_sum(items: Iterable[RingElem]) -> RingElem:
    """Sum with a single expansion to the common (multiset-max) denominator."""
    items = list(items)
    return _sum_elem(items) if items else RingElem.zero()


def specialize_y(p: LaurentPoly) -> UniPoly:
    """Set u = v = y: the monomial (a, b) lands on y^((a+b)/2)."""
    return UniPoly._raw(_accumulate({}, ((a + b, c) for (a, b), c in p._ints.items())), p._scale)


def specialize_elem(x: RingElem) -> Tuple[UniPoly, UniPoly]:
    """Specialize num and den separately; (1 - L^k) becomes (1 - y^(2k))."""
    return specialize_y(x.num), specialize_y(x.den.expand())
