"""Differential tests: the polynomial kernel against the dict reference.

LaurentPoly and UniPoly share one arithmetic; every operation of each is
compared with ``polyref`` on random sparse inputs.  Hypothesis runs
derandomized, so the examples are the same on every run.
"""

import contextlib
import json
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import polyref as ref
from dispatchref import product_path
from curvedt import cli, ring
from curvedt.invariants import q_rank, zeta_at_lefschetz
from curvedt.ring import (
    CycloDenominator,
    LaurentPoly,
    NotDivisibleError,
    RingElem,
    UniPoly,
    exact_divide_cyclo,
    half_lefschetz,
    specialize_elem,
    specialize_y,
)

SETTINGS = settings(derandomize=True, max_examples=50, deadline=None, database=None)

coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
scalars = st.one_of(st.integers(-3, 3), coeffs)
pair_terms = st.dictionaries(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), coeffs, max_size=8)
int_terms = st.dictionaries(st.integers(-8, 8), coeffs, max_size=8)
KINDS = {"laurent": (LaurentPoly, pair_terms, (0, 0)), "uni": (UniPoly, int_terms, 0)}


def clean(terms):
    return {k: Fraction(c) for k, c in terms.items() if c}


def pairs_of(kind):
    cls, terms, unit = KINDS[kind]
    return st.tuples(terms, terms).map(lambda ab: (cls, unit, clean(ab[0]), clean(ab[1])))


@SETTINGS
@given(st.sampled_from(sorted(KINDS)).flatmap(pairs_of), scalars, st.integers(0, 4))
def test_ring_operations_match_reference(case, c, n):
    cls, unit, a, b = case
    pa, pb = cls(a), cls(b)
    assert pa.terms == a
    assert (pa + pb).terms == ref.add(a, b)
    assert (pa - pb).terms == ref.sub(a, b)
    assert (-pa).terms == ref.neg(a)
    assert (pa * pb).terms == ref.mul(a, b)
    assert (pa * c).terms == ref.scale(a, c) == (c * pa).terms
    assert (pa ** n).terms == ref.power(a, n, unit)
    if cls is LaurentPoly:
        want = json.dumps(ref.records(a), sort_keys=True, indent=2).replace("\n", "\n  ")
        assert cli._terms_json(pa) == want
    assert (pa == pb) == (a == b)


@SETTINGS
@given(pair_terms.map(clean), st.integers(1, 4))
def test_laurent_maps_match_reference(a, n):
    p = LaurentPoly(a)
    assert p.adams(n).terms == ref.adams(a, n)
    assert p.dual().terms == ref.dual(a)
    assert specialize_y(p).terms == ref.specialize(a)


@SETTINGS
@given(pair_terms.map(clean), st.integers(1, 3))
def test_exact_division_of_products(q, k):
    p = ref.mul(q, ref.one_minus_lefschetz(k))
    assert exact_divide_cyclo(LaurentPoly(p), k).terms == q == ref.divide_cyclo(p, k)
    assert ref.divide_cyclo_heap(p, k) == q


@SETTINGS
@given(pair_terms.map(clean), st.integers(1, 3))
def test_exact_division_matches_reference(a, k):
    # two oracles: running sums along each line, and blocks by total degree
    want = ref.divide_cyclo(a, k)
    assert ref.divide_cyclo_heap(a, k) == want
    if want is None:
        with pytest.raises(NotDivisibleError):
            exact_divide_cyclo(LaurentPoly(a), k)
    else:
        assert exact_divide_cyclo(LaurentPoly(a), k).terms == want


def divide_factor_by_factor(a, ks):
    """(quotient, None) by polyref's division in the order of ks, or
    (None, k) for the first k that leaves a remainder."""
    for k in ks:
        a = ref.divide_cyclo(a, k)
        if a is None:
            return None, k
    return a, None


def one_pass(a, ks):
    """exact_divide_cyclo on every factor at once, in the oracle's form."""
    try:
        return exact_divide_cyclo(LaurentPoly(a), *ks).terms, None
    except NotDivisibleError as e:
        return None, int(str(e).rpartition("^")[2])


denominators = st.lists(st.integers(1, 7), max_size=24)  # the shape of the hdt_large denominators
diagonal_terms = st.dictionaries(st.integers(-6, 6).map(lambda a: (a, a)), coeffs, max_size=8)


@SETTINGS
@given(st.one_of(pair_terms, diagonal_terms).map(clean), denominators)
def test_one_pass_division_of_products(q, ks):
    # half-integer exponents (odd doubled keys), Fraction coefficients, repeated factors
    p = ref.times_cyclo(q, ks)
    assert one_pass(p, ks) == (q, None) == divide_factor_by_factor(p, ks)


@SETTINGS
@given(st.lists(st.tuples(pair_terms.map(clean), st.lists(st.integers(1, 7), max_size=8)),
                min_size=1, max_size=3), denominators)
def test_one_pass_division_fails_on_the_oracles_first_factor(parts, ks):
    # a sum of multiples of different factor sets: its lines fail at different factors
    p = {}
    for q, part_ks in parts:
        p = ref.add(p, ref.times_cyclo(q, part_ks))
    assert one_pass(p, ks) == divide_factor_by_factor(p, ks)


def test_one_pass_division_names_the_first_failing_factor_over_all_lines():
    u, v = {(2, 0): Fraction(1)}, {(0, 2): Fraction(1)}
    # the line of u is divisible by 1 - L and 1 - L^2, the line of v by 1 - L only
    p = ref.add(ref.times_cyclo(u, (1, 2)), ref.times_cyclo(v, (1,)))
    assert list(p)[0][0] - list(p)[0][1] == 2  # the line that fails later comes first
    for ks in ((1, 2, 3), (1, 3, 2), (2, 1), (1, 1), (1,)):
        assert one_pass(p, ks) == divide_factor_by_factor(p, ks)
    with pytest.raises(NotDivisibleError, match=r"^not divisible by 1 - L\^2$"):
        exact_divide_cyclo(LaurentPoly(p), 1, 2, 3)


def test_one_pass_division_edge_cases():
    p = LaurentPoly({(1, 3): Fraction(1, 2), (0, 0): -3})
    assert exact_divide_cyclo(p) is p
    assert exact_divide_cyclo(LaurentPoly.zero(), 3, 1, 3).is_zero()
    for ks in ((0,), (1, 0), (2, 2, 0, 1), (1, -1)):
        for x in (p, LaurentPoly.zero()):
            with pytest.raises(ValueError, match="k >= 1"):
                exact_divide_cyclo(x, *ks)


@SETTINGS
@given(pair_terms.map(clean), st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_to_polynomial_divides_repeated_factors(q, ks):
    # repeated factors and Fraction coefficients, all divided out in one pass
    x = RingElem(LaurentPoly(ref.times_cyclo(q, ks)), CycloDenominator(tuple(ks)))
    assert canonical(x.to_polynomial()) == q


@SETTINGS
@given(pair_terms.map(clean), st.lists(st.integers(1, 3), max_size=3))
def test_denominators_expand_and_specialize(a, ks):
    den = {(0, 0): Fraction(1)}
    for k in ks:
        den = ref.mul(den, ref.one_minus_lefschetz(k))
    assert CycloDenominator(tuple(ks)).expand().terms == den
    num_y, den_y = specialize_elem(RingElem(LaurentPoly(a), CycloDenominator(tuple(ks))))
    assert (num_y.terms, den_y.terms) == (ref.specialize(a), ref.specialize(den))


def test_classes_do_not_mix():
    assert LaurentPoly.zero() != UniPoly.zero()
    assert not (LaurentPoly.one() == UniPoly.one())
    for a, b in ((LaurentPoly.one(), UniPoly.one()), (UniPoly.one(), LaurentPoly.one())):
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(TypeError):
                op(a, b)
    assert not issubclass(LaurentPoly, UniPoly) and not issubclass(UniPoly, LaurentPoly)


def test_negative_power_is_refused():
    for cls in (LaurentPoly, UniPoly):
        with pytest.raises(ValueError):
            cls.one() ** -1


# ------------------------------------------------ canonical coefficients and packed products

big_ints = st.integers(-(2**200), 2**200).filter(bool)
rich_coeffs = st.one_of(
    big_ints,
    st.integers(-9, 9).filter(bool),
    st.builds(Fraction, big_ints, st.integers(1, 2**40)),  # may be integral: Fraction(6, 1)
    coeffs.filter(bool),
)
# Dense enough that products of 40 or more terms are packed; odd and even
# exponents mixed, so no common step divides them.
DENSE = {
    LaurentPoly: st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    UniPoly: st.integers(-30, 30),
}
# Spread so wide that no product is packed.
FAR = {
    LaurentPoly: st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)),
    UniPoly: st.integers(-10**6, 10**6),
}


def in_uv(x):
    """A pipeline element, whose numerator is in s = u + v, with its numerator in u, v."""
    return RingElem(x.num.to_laurent(), x.den)


def canonical(p):
    """p's terms, after checking that no integral coefficient is a Fraction."""
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    return p.terms


def operands(keys, min_size, max_size):
    """Strategy for (class, terms, terms) over the key strategies in ``keys``."""
    def pair(cls):
        terms = st.dictionaries(keys[cls], rich_coeffs, min_size=min_size, max_size=max_size)
        return st.tuples(st.just(cls), terms.map(clean), terms.map(clean))

    return st.sampled_from(list(keys)).flatmap(pair)


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(operands(DENSE, 40, 60))
def test_large_products_match_reference(case):
    cls, a, b = case
    pa, pb = cls(a), cls(b)
    assert product_path(a, b) == "kronecker"
    assert canonical(pa) == a
    want = ref.mul(a, b)
    with pack_calls() as calls:
        assert canonical(pa * pb) == want
    assert len(calls) == 2
    assert canonical(pb * pa) == want


@SETTINGS
@given(operands(DENSE, 1, 20))
def test_cancelling_products_match_reference(case):
    cls, a, b = case
    p, q = cls(a), cls(b)
    # (p + q)(p - q) = p^2 - q^2: the cross terms cancel slot by slot
    want = ref.sub(ref.mul(a, a), ref.mul(b, b))
    assert canonical((p + q) * (p - q)) == want == canonical(p * p - q * q)
    assert canonical(p * (-p) + p * p) == {}
    assert canonical(p * cls.zero()) == {} == canonical(cls.zero() * q)


@SETTINGS
@given(operands({LaurentPoly: DENSE[LaurentPoly]}, 1, 20), st.integers(2, 5))
def test_adams_images_times_polynomials(case, n):
    _, a, b = case
    p, q = LaurentPoly(a), LaurentPoly(b)
    assert canonical(p.adams(n) * q) == ref.mul(ref.adams(a, n), b)
    assert canonical(p.adams(n) * q.adams(n)) == ref.adams(ref.mul(a, b), n)
    ua, ub = {n * e: c for e, c in ref.specialize(a).items()}, ref.specialize(b)
    assert canonical(UniPoly(ua) * UniPoly(ub)) == ref.mul(ua, ub)


# ------------------------------------------------ the Kronecker codec at word boundaries

# slot widths on both sides of one, two and three 64-bit words
WIDTHS = list(range(1, 18)) + [24, 25]


def codec_case(width):
    """(slots, coefficients) with the first and last slots of the pack occupied by
    the extreme coefficients +-(2^(8 width - 1) - 1), small ones of either sign, and
    empty slots between them."""
    top = (1 << 8 * width - 1) - 1
    slots = [0, 1, 3, 4, 7, 8, 12]
    return slots, [top, -top, -1, 1, top, -(top >> 1), -top]


def reference_pack(slots, coeffs, width):
    return sum(c << 8 * width * s for s, c in zip(slots, coeffs))


@pytest.mark.parametrize("width", WIDTHS)
def test_codec_round_trips_at_every_word_boundary(width):
    slots, cs = codec_case(width)
    n = ring._pack(slots, cs, width)
    assert n == reference_pack(slots, cs, width)
    for box in (max(slots) + 1, max(slots) + 5):  # and empty slots after the last
        assert ring._unpack(n, box, width) == (slots, cs)
    assert ring._unpack(ring._pack([5], [0], width), 9, width) == ([], [])


class BigEndianView:
    """memoryview(buf).cast(fmt) for fmt "Q" or "q" as a big-endian host reads it:
    strided slices, item stores and tolist, each word its 8 bytes most significant
    first."""

    def __init__(self, buf, fmt="B", start=0, step=1):
        self.buf, self.fmt, self.start, self.step = buf, fmt, start, step

    def cast(self, fmt):
        return BigEndianView(self.buf, fmt)

    def __len__(self):
        return len(range(self.start, len(self.buf) // 8, self.step))

    def __getitem__(self, part):
        start, _, step = part.indices(len(self))
        return BigEndianView(self.buf, self.fmt, self.start + start * self.step, self.step * step)

    def __setitem__(self, i, value):
        at = 8 * (self.start + i * self.step)
        self.buf[at:at + 8] = value.to_bytes(8, "big", signed=self.fmt == "q")

    def tolist(self):
        return [int.from_bytes(self.buf[8 * i:8 * i + 8], "big", signed=self.fmt == "q")
                for i in range(self.start, len(self.buf) // 8, self.step)]


@pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 17])
def test_codec_does_not_depend_on_host_byte_order(width):
    slots, cs = codec_case(width)
    with mock.patch.object(ring, "memoryview", BigEndianView, create=True):
        with mock.patch.object(ring, "_FLIP", 7):
            n = ring._pack(slots, cs, width)
            assert n == reference_pack(slots, cs, width)
            assert ring._unpack(n, max(slots) + 3, width) == (slots, cs)
        # the stand-in has teeth: little-endian offsets on it scramble the words
        with mock.patch.object(ring, "_FLIP", 0):
            assert ring._pack(slots, cs, width) != n


@contextlib.contextmanager
def pack_calls():
    """A list that records (slot count, slot width) for each _pack call."""
    calls = []
    real = ring._pack

    def spy(slots, coeffs, width):
        calls.append((len(slots), width))
        return real(slots, coeffs, width)

    with mock.patch.object(ring, "_pack", spy):
        yield calls


# Coefficients of 4w - 7 bits in operands of 50 terms give slot width w (see
# ring._product); w = 8, 9 and 16, 17 put the slots on both sides of one and two words.
@pytest.mark.parametrize("width", [7, 8, 9, 15, 16, 17])
@pytest.mark.parametrize("cls", [LaurentPoly, UniPoly])
def test_products_across_word_boundaries_match_reference(cls, width):
    rnd = random.Random(width)
    bits = 4 * width - 7
    keys = {LaurentPoly: [(a, b) for a in range(-4, 5) for b in range(-4, 5)],
            UniPoly: list(range(-30, 31))}[cls]

    def operand():
        terms = {k: rnd.choice((1, -1)) * rnd.getrandbits(bits) | 1 for k in rnd.sample(keys, 50)}
        terms[rnd.choice(list(terms))] = rnd.choice((1, -1)) * ((1 << bits) - 1)
        return terms

    a, b = operand(), operand()
    aligned = {k: (1 << bits) - 1 for k in a}  # every pair the same sign: the largest slots
    for x, y in ((a, b), (aligned, aligned), (a, ref.neg(a))):
        with pack_calls() as calls:
            got = (cls(x) * cls(y)).terms
        assert [w for _, w in calls] == [width, width]
        assert got == ref.mul(clean(x), clean(y))


@SETTINGS
@given(operands(FAR, 2, 10))
def test_sparse_products_take_the_dict_loop(case):
    cls, a, b = case
    pa, pb = cls(a), cls(b)
    assert product_path(a, b) in ("keys", "dict")
    with pack_calls() as calls:
        assert canonical(pa * pb) == ref.mul(a, b)
    assert not calls


# ------------------------------------------------ products by operand shape

def product_on_its_path(cls, a, b, path):
    """a * b through the kernel, after checking that it takes `path`: the _pack
    calls show it (none on the key and dict loops, the larger operand alone
    for shift-adds, both operands for the Kronecker product)."""
    assert product_path(a, b) == path
    with pack_calls() as calls:
        got = canonical(cls(a) * cls(b))
    packs = {"keys": [], "dict": [], "shift": [max(len(a), len(b))],
             "kronecker": sorted((len(a), len(b)), reverse=True)}[path]
    assert [n for n, _ in calls] == packs
    return got


@SETTINGS
@given(operands(DENSE, 1, 16))
def test_small_products_multiply_on_keys(case):
    # at most 16 x 16 pairs, big and Fraction coefficients (mixed scales), both orders
    cls, a, b = case
    for x, y in ((a, b), (b, a)):
        assert product_on_its_path(cls, x, y, "keys") == ref.mul(x, y)


@pytest.mark.parametrize("cls", [LaurentPoly, UniPoly])
def test_one_term_operands_multiply_on_keys_on_either_side(cls):
    rnd = random.Random(3)
    key = {LaurentPoly: lambda: (rnd.randint(-40, 40), rnd.randint(-40, 40)),
           UniPoly: lambda: rnd.randint(-900, 900)}[cls]
    big = {key(): Fraction(rnd.randint(-10**30, 10**30) or 1, rnd.randint(1, 50)) for _ in range(400)}
    assert len(big) > ring._KEY_PAIRS
    for one in ({key(): Fraction(-3, 7)}, {key(): Fraction(2**70)}, {key(): Fraction(1)}):
        for x, y in ((one, big), (big, one)):
            assert product_on_its_path(cls, x, y, "keys") == ref.mul(x, y)


@SETTINGS
@given(operands(DENSE, 1, 8))
def test_products_on_keys_cancel_to_zero(case):
    cls, a, b = case
    # (a + b)(a - b), at most 16 x 16 pairs: the cross terms cancel in one dict
    s, d = ref.add(a, b), ref.sub(a, b)
    if s and d:
        assert product_on_its_path(cls, s, d, "keys") == ref.sub(ref.mul(a, a), ref.mul(b, b))
    assert canonical(cls(a) * cls(b) - cls(b) * cls(a)) == {}


def spread_factor(rnd, keys, n, stride, signs=(1, -1)):
    """n terms on every stride-th key, with big and Fraction coefficients of the given signs."""
    coeff = [lambda: Fraction(rnd.getrandbits(90) + 1), lambda: Fraction(rnd.getrandbits(20) + 1, 12),
             lambda: Fraction(rnd.randint(1, 9))]
    return {k: rnd.choice(signs) * rnd.choice(coeff)() for k in keys[::stride][:n]}


SHIFT_KEYS = {LaurentPoly: [(a, b) for a in range(-12, 13) for b in range(-12, 13) if (a + b) % 2 == 0],
              UniPoly: list(range(-300, 301))}


@pytest.mark.parametrize("signs", [(1, -1), (-1,)], ids=["mixed", "negative"])
@pytest.mark.parametrize("n", [2, 9, 36, 64])
@pytest.mark.parametrize("cls", [LaurentPoly, UniPoly])
def test_few_term_factors_take_shift_adds(cls, n, signs):
    # a factor on every fifth key, times a dense operand of mixed scales: the box
    # is not dense at 2 terms, and dense from 36 on, where the factor spans it at
    # more than four slots per term
    rnd = random.Random(n)
    keys = SHIFT_KEYS[cls]
    dense = {k: Fraction(rnd.randint(-10**12, 10**12) or 1, rnd.choice((1, 2, 3, 5)))
             for k in keys if rnd.random() < 0.8}
    few = spread_factor(rnd, keys, n, 5, signs)
    for x, y in ((few, dense), (dense, few)):
        assert product_on_its_path(cls, x, y, "shift") == ref.mul(x, y)


@pytest.mark.parametrize("cls", [LaurentPoly, UniPoly])
def test_shift_add_products_cancel_to_zero(cls):
    # sum of L^(s i), i < m, times (1 - L^s) r: all but the two ends of the box cancel
    rnd = random.Random(5)
    step = {LaurentPoly: lambda e: (e, e), UniPoly: lambda e: e}[cls]
    s, m = 7, 12
    few = {step(s * i): Fraction(1) for i in range(m)}
    r = {step(e): Fraction(rnd.randint(-10**20, 10**20) or 1, rnd.randint(1, 9)) for e in range(-40, 41)}
    dense = ref.mul(r, {step(0): Fraction(1), step(s): Fraction(-1)})
    want = ref.mul(r, {step(0): Fraction(1), step(s * m): Fraction(-1)})
    assert product_on_its_path(cls, few, dense, "shift") == want == ref.mul(few, dense)
    assert product_on_its_path(cls, ref.neg(few), dense, "shift") == ref.neg(want)


# Coefficients of 4w - 6 bits in a 16-term factor give slot width w (see
# ring._product); w = 8, 9 and 16, 17 put the slots on both sides of one and two words.
@pytest.mark.parametrize("width", [8, 9, 16, 17])
@pytest.mark.parametrize("cls", [LaurentPoly, UniPoly])
def test_shift_add_products_across_word_boundaries_match_reference(cls, width):
    rnd = random.Random(width)
    bits = 4 * width - 6
    keys = SHIFT_KEYS[cls]
    top = (1 << bits) - 1

    def operand(n, stride):
        terms = {k: rnd.choice((1, -1)) * rnd.getrandbits(bits) | 1 for k in keys[::stride][:n]}
        terms[rnd.choice(list(terms))] = rnd.choice((1, -1)) * top
        return terms

    few, big = operand(16, len(keys) // 16), operand(len(keys), 1)
    # every pair of one sign: the largest slots, negative and positive
    for x, y in ((few, big), ({k: -top for k in few}, {k: top for k in big}),
                 ({k: top for k in few}, {k: top for k in big}), (few, ref.neg(big))):
        with pack_calls() as calls:
            got = (cls(x) * cls(y)).terms
        assert product_path(x, y) == "shift" and calls == [(len(y), width)]
        assert got == ref.mul(clean(x), clean(y))


@pytest.mark.parametrize("g", [2, 3])
def test_q_rank_products_take_shift_adds(g):
    # Q_(r-1) * Z(L^(r-1)) L^((1-g)(2r-1)/2) by the (g+1)^2-term factor: the
    # product of every rank that is past the key loop is a shift-add
    for r in range(3, 7):
        factor = in_uv(zeta_at_lefschetz(g, r - 1)) * half_lefschetz((1 - g) * (2 * r - 1))
        prev = in_uv(q_rank(g, r - 1))
        assert len(factor.num) == (g + 1) ** 2
        got = product_on_its_path(LaurentPoly, prev.num.terms, factor.num.terms, "shift")
        assert got == ref.mul(prev.num.terms, factor.num.terms)
        assert prev * factor == in_uv(q_rank(g, r))


@SETTINGS
@given(st.sampled_from(sorted(KINDS)).flatmap(pairs_of), scalars, st.integers(0, 3),
       st.integers(1, 3))
def test_every_operation_returns_canonical_coefficients(case, c, n, k):
    cls, unit, a, b = case
    # integral Fractions on the way in must not survive construction
    pa, pb = cls({m: Fraction(2 * v.numerator, 2) for m, v in a.items()}), cls(b)
    for p in (pa, pb, pa + pb, pa - pb, -pa, pa * pb, pa * c, c * pb, pa ** n,
              cls({unit: Fraction(6, 3)}), cls.one()):
        canonical(p)
    if cls is LaurentPoly:
        for p in (pa.adams(n + 1), pa.dual(), half_lefschetz(n)):
            canonical(p)
        canonical(specialize_y(pa))
        product = pa * LaurentPoly(ref.one_minus_lefschetz(k))
        canonical(product)
        assert canonical(exact_divide_cyclo(product, k)) == pa.terms
        assert canonical(RingElem(product, CycloDenominator.of(k)).to_polynomial()) == pa.terms


# ------------------------------------------------ sums over cyclotomic denominators

def elem(num, ks):
    return RingElem(LaurentPoly(num), CycloDenominator(tuple(ks)))


def fractions_over(keys, max_terms, factors, max_factors=14, min_terms=0):
    """Strategy for (numerator, factor list) pairs with int and Fraction
    coefficients."""
    nums = st.dictionaries(keys, rich_coeffs, min_size=min_terms, max_size=max_terms)
    return st.tuples(nums.map(clean), st.lists(factors, max_size=max_factors))


def check_sum(items):
    elems = [elem(*x) for x in items]
    want_num, want_den = ref.fraction_sum(items)
    total = ring.ring_sum(elems)
    assert (canonical(total.num), list(total.den.factors)) == (want_num, want_den)
    return elems, want_num


def ref_equal(x, y):
    """Whether the fractions x and y, as (numerator, factor list), are equal."""
    return ref.fraction_sum([x, (ref.neg(y[0]), y[1])])[0] == {}


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(st.lists(fractions_over(DENSE[LaurentPoly], 8, st.integers(1, 4)), min_size=1, max_size=5))
def test_sums_match_reference(items):
    elems, _ = check_sum(items)
    a, b = elems[0], elems[-1]
    want_num, want_den = ref.fraction_sum([items[0], items[-1]])
    assert (canonical((a + b).num), list((a + b).den.factors)) == (want_num, want_den)
    assert (a == b) == ref_equal(items[0], items[-1])
    assert a == a + elem({}, items[-1][1])


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(st.lists(fractions_over(DENSE[LaurentPoly], 8, st.integers(1, 4)), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_cancelling_sums_are_zero(items, rnd):
    terms = items + [(ref.neg(num), ks) for num, ks in items]
    rnd.shuffle(terms)
    elems, want = check_sum(terms)
    assert want == {} and ring.ring_sum(elems).is_zero()
    half = len(items)
    assert ring.ring_sum(elems[:half]) == -ring.ring_sum(elems[half:])
    # the same fraction over a larger denominator
    num, ks = items[0]
    wider = elem(ref.times_cyclo(num, [3, 5]), ks + [5, 3])
    assert wider == elem(num, ks) and (wider - elem(num, ks)).is_zero()


@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(st.lists(fractions_over(FAR[LaurentPoly], 6, st.integers(1, 10**5), 3, min_terms=2),
                min_size=2, max_size=4))
def test_far_apart_sums_match_reference(items):
    a, b = check_sum(items)[0][:2]
    assert (a == b) == ref_equal(items[0], items[1])


# ------------------------------------------------ packed sums over a common denominator

@contextlib.contextmanager
def packed_sums():
    """A list that records, for each sum, whether it was packed."""
    paths = []
    real = ring._packed_sum

    def spy(*args):
        out = real(*args)
        paths.append(out is not None)
        return out

    with mock.patch.object(ring, "_packed_sum", spy):
        yield paths


def term_shifts(items):
    """sum over the items of terms * factors missing from the multiset-max denominator."""
    lcd = Counter()
    for _, ks in items:
        lcd |= Counter(ks)
    return sum(len(num) * sum((lcd - Counter(ks)).values()) for num, ks in items)


def random_coefficient(rnd, big):
    """A nonzero Fraction of either sign: a small int, a small rational or, if big,
    sometimes an int of about 100 bits."""
    c = rnd.choice([rnd.randint(1, 9), Fraction(rnd.randint(1, 9), rnd.randint(2, 5))]
                   + [rnd.getrandbits(100) | 1] * big)
    return Fraction(c if rnd.random() < 0.5 else -c)


def random_sum(rnd, lcd, keys, n_items, n_terms):
    """n_items fractions (numerator of n_terms terms, factor list) drawn from rnd.  The
    first carries all of lcd, so no factor is missing from it; each other carries at
    most one factor of lcd, so all others are missing."""
    big = rnd.random() < 0.5
    items = []
    for i in range(n_items):
        num = {k: random_coefficient(rnd, big) for k in keys(rnd, n_terms)}
        items.append((num, list(lcd) if i == 0 else rnd.sample(lcd, rnd.randint(0, 1))))
    return items


def dense_keys(rnd, n):
    return rnd.sample([(a, b) for a in range(-4, 5) for b in range(-4, 5)], n)


def far_keys(rnd, n):
    return {(rnd.randint(-10**6, 10**6), rnd.randint(-10**6, 10**6)) for _ in range(n)}


# 7 items of 50 terms over a 9 x 9 box, six of them missing 7 or 8 of the 8 factors:
# at least 2100 term shifts into a box of 17 * 97 slots.
LCD = (1, 1, 1, 2, 2, 3, 4, 6)
PACKED_SETTINGS = settings(derandomize=True, max_examples=8, deadline=None, database=None)
# a seed for the random module draws the bulk of an example: Hypothesis itself would
# draw each of its hundreds of terms, which makes examples slow to generate and shrink
rngs = st.integers(0, 2**32 - 1).map(random.Random)


@PACKED_SETTINGS
@given(rngs)
def test_packed_sums_match_reference(rnd):
    items = random_sum(rnd, LCD, dense_keys, 7, 50)
    assert term_shifts(items) >= ring._PACK_SHIFTS
    with packed_sums() as paths:
        check_sum(items)
    assert paths == [True]


@PACKED_SETTINGS
@given(rngs)
def test_packed_sums_cancel_to_zero(rnd):
    items = random_sum(rnd, LCD, dense_keys, 4, 50)
    terms = items + [(ref.neg(num), ks) for num, ks in items]
    rnd.shuffle(terms)
    with packed_sums() as paths:
        elems, want = check_sum(terms)
        assert want == {} and ring.ring_sum(elems).is_zero()
    assert paths == [True, True]


@PACKED_SETTINGS
@given(rngs, st.sampled_from([(0, 0), (1, -1), (-4, 4), (40, 40)]))
def test_equality_of_packed_size_operands(rnd, key):
    total = ring.ring_sum([elem(*x) for x in random_sum(rnd, LCD, dense_keys, 7, 50)])
    # the same fraction over a denominator with four more factors: 4 * len(total) shifts
    extra = (1, 1, 2, 2)
    wider = LaurentPoly(ref.times_cyclo(total.num.terms, extra))
    bump = LaurentPoly({key: Fraction(1, 3)})
    with packed_sums() as paths:
        assert total == RingElem(wider, total.den * CycloDenominator(extra))
        assert RingElem(wider, total.den * CycloDenominator(extra)) == total
        assert total != RingElem(wider + bump, total.den * CycloDenominator(extra))
    assert paths == [True, True, True]


@settings(derandomize=True, max_examples=5, deadline=None, database=None)
@given(rngs, st.lists(st.integers(1, 10**5), min_size=4, max_size=4))
def test_sparse_sums_take_the_dict_loop(rnd, lcd):
    # 8 items of 100 terms spread as far as FAR, seven of them missing 3 or 4 factors:
    # at least 2100 term shifts, but into an astronomically sparse box
    items = random_sum(rnd, lcd, far_keys, 8, 100)
    assert term_shifts(items) >= ring._PACK_SHIFTS
    with packed_sums() as paths, mock.patch.object(ring, "_pack", side_effect=AssertionError):
        check_sum(items)
    assert paths == [False]
