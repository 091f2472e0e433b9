"""Reference arithmetic for the polynomial kernel, on plain dicts.

A polynomial is a dict from a monomial key to a nonzero Fraction.  Keys
are ints (one variable, the UniPoly encoding) or tuples of ints (the
doubled-exponent pairs of LaurentPoly).  Every function is written the
obvious way, independently of ``curvedt.ring``, so that it can serve as
an oracle for any faster kernel.
"""

import heapq
from collections import Counter, defaultdict
from fractions import Fraction


def _clean(acc):
    return {k: Fraction(c) for k, c in acc.items() if c}


def key_add(k1, k2):
    if isinstance(k1, int):
        return k1 + k2
    return tuple(x + y for x, y in zip(k1, k2))


def add(a, b):
    acc = defaultdict(Fraction, a)
    for k, c in b.items():
        acc[k] += c
    return _clean(acc)


def neg(a):
    return {k: -c for k, c in a.items()}


def sub(a, b):
    return add(a, neg(b))


def scale(a, c):
    return _clean({k: v * c for k, v in a.items()})


def mul(a, b):
    acc = defaultdict(Fraction)
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            acc[key_add(k1, k2)] += c1 * c2
    return _clean(acc)


def power(a, n, unit):
    out = {unit: Fraction(1)}
    for _ in range(n):
        out = mul(out, a)
    return out


def adams(a, n):
    return {(n * x, n * y): c for (x, y), c in a.items()}


def dual(a):
    return {(-x, -y): c for (x, y), c in a.items()}


def specialize(a):
    """u = v = y: the pair key (x, y) lands on the int key x + y."""
    acc = defaultdict(Fraction)
    for (x, y), c in a.items():
        acc[x + y] += c
    return _clean(acc)


def at_neg_y(a):
    """y -> -y on integral (even doubled) exponents."""
    return {e: (-c if (e // 2) % 2 else c) for e, c in a.items()}


def records(a):
    """The CLI's JSON term list of a bivariate a, sorted by (eu2, ev2)."""
    return [{"eu2": x, "ev2": y, "num": c.numerator, "den": c.denominator}
            for (x, y), c in sorted(a.items())]


def one_minus_lefschetz(k):
    """1 - L^k, with L^k = (uv)^k the doubled key (2k, 2k)."""
    return {(0, 0): Fraction(1), (2 * k, 2 * k): Fraction(-1)}


def times_cyclo(a, ks):
    """a * prod_k (1 - L^k), one shift-and-subtract per factor."""
    for k in ks:
        a = sub(a, {(x + 2 * k, y + 2 * k): c for (x, y), c in a.items()})
    return a


def fraction_sum(items):
    """Sum of fractions (numerator, factor list), each numerator expanded
    to the multiset-max denominator: (numerator, sorted factor list)."""
    lcd = Counter()
    for _, ks in items:
        lcd |= Counter(ks)
    total = {}
    for num, ks in items:
        total = add(total, times_cyclo(num, (lcd - Counter(ks)).elements()))
    return total, sorted(lcd.elements())


def divide_cyclo(a, k):
    """a / (1 - L^k), or None when the division leaves a remainder.

    Multiplying by (1 - L^k) = 1 - t, t = L^k, keeps each line of keys
    {(x + 2kj, y + 2kj)} to itself.  On one line, a is a Laurent
    polynomial in t; it is divisible by 1 - t exactly when its
    coefficients sum to zero, and the quotient's coefficients are the
    running sums.
    """
    lines = defaultdict(list)
    for (x, y), c in a.items():
        lines[(x - y, x % (2 * k))].append(((x, y), c))
    out = {}
    for terms in lines.values():
        terms.sort()
        total, prev = Fraction(0), None
        for key, c in terms:
            if prev is not None and total:
                # running sum continues on the keys between prev and key
                step = (prev[0] + 2 * k, prev[1] + 2 * k)
                while step != key:
                    out[step] = total
                    step = (step[0] + 2 * k, step[1] + 2 * k)
            total += c
            if total:
                out[key] = total
            prev = key
        if total:
            return None
    return out


def divide_cyclo_heap(a, k):
    """a / (1 - L^k), or None when the division leaves a remainder.

    A second algorithm, by total degree: the lowest-degree block of the
    remainder belongs to the quotient, because 1 - L^k has constant term 1
    and its other term raises the doubled total degree by 4k.  The block
    is moved to the quotient and added, shifted, 4k higher.  In an exact
    division every block so moved sits at least 4k below the top of a.
    """
    if not a:
        return {}
    buckets = defaultdict(dict)
    for key, c in a.items():
        buckets[key[0] + key[1]][key] = c
    heap = list(buckets)
    heapq.heapify(heap)
    limit = max(buckets) - 4 * k
    out = {}
    while heap:
        deg = heapq.heappop(heap)
        block = buckets.pop(deg, None)
        if not block:
            continue
        if deg > limit:
            return None
        if deg + 4 * k not in buckets:
            heapq.heappush(heap, deg + 4 * k)
        out.update(block)
        shifted = {(x + 2 * k, y + 2 * k): c for (x, y), c in block.items()}
        buckets[deg + 4 * k] = add(buckets[deg + 4 * k], shifted)
    return out
