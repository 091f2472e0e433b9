"""Evaluation of a term dict at one point modulo the prime p = 2^61 - 1.

A term dict maps a key to an int coefficient.  A pair key (a, b) stands
for X^a Y^b and an int key k for X^k; a negative exponent is a power of
the modular inverse.  Keys add when polynomials multiply, so evaluation
is a ring homomorphism on every key type of the kernel: the doubled
exponent pairs of ``LaurentPoly``, the doubled exponents of ``UniPoly``,
and the keys of ``SymPoly``, which are ``LaurentPoly`` keys under an
injective ring map.  A product c = a * b then has to satisfy
value(c) = value(a) * value(b) mod p; a wrong coefficient or key is
missed only with probability about (degree) / p.

Written without ``curvedt``, so that it can audit the kernel from
outside.
"""

import random

P = (1 << 61) - 1


class Point:
    """A seeded random point (X, Y) of (Z/p)^2, X and Y nonzero."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.x, self.y = rng.randrange(2, P), rng.randrange(2, P)
        self._powers = {}

    def _power(self, base, e):
        key = (base, e)
        value = self._powers.get(key)
        if value is None:
            value = self._powers[key] = pow(base, e, P)  # e < 0: the inverse's power
        return value

    def __call__(self, terms):
        """The value of sum c * key at this point, in [0, p)."""
        total = 0
        for k, c in terms.items():
            if type(k) is int:
                total += c * self._power(self.x, k)
            else:
                a, b = k
                total += c * self._power(self.x, a) * self._power(self.y, b)
        return total % P

    def one_minus_lefschetz(self, k):
        """The value of 1 - L^k = 1 - (uv)^k, the key (2k, 2k)."""
        return (1 - self._power(self.x, 2 * k) * self._power(self.y, 2 * k)) % P
