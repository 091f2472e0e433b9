"""The path of a product in the polynomial kernel, restated from its rule.

``product_path(a, b)`` names the path that ``ring._product`` takes for
the term dicts a * b, from the operands' shape alone, as the
``_product`` docstring and the comments on its bounds state the rule:

* "keys": a one-term operand, or at most _KEY_PAIRS coefficient pairs;
  nothing is packed;
* "shift": the smaller operand has at most _SHIFT_TERMS terms, the
  product's exponent box has at most two slots per pair, and the box is
  not dense or the smaller operand spans at least four slots per term;
  the larger operand is packed once;
* "kronecker": any other dense box (at most 1/_PAIRS_PER_SLOT slot per
  pair); both operands are packed;
* "dict": the rest; nothing is packed.

The box is the product's exponent box with the common step of each
variable divided out, on one axis when every key of both operands lies
on the diagonal a = b.  The smaller operand is the left one when both
have as many terms.  Tests compare this with the ``_pack`` calls the
kernel makes.
"""

from math import gcd

from curvedt import ring


def product_path(a, b):
    a, b = (b, a) if len(a) > len(b) else (a, b)
    pairs = len(a) * len(b)
    if len(a) == 1 or pairs <= ring._KEY_PAIRS:
        return "keys"
    ka, kb = ([(k,) if isinstance(k, int) else k for k in t] for t in (a, b))
    if all(len(set(k)) == 1 for k in ka + kb):
        ka, kb = [k[:1] for k in ka], [k[:1] for k in kb]
    box, slots = 1, [0] * len(ka)
    for i in reversed(range(len(ka[0]))):
        xa, xb = [k[i] for k in ka], [k[i] for k in kb]
        step = gcd(*(x - min(xa) for x in xa), *(x - min(xb) for x in xb)) or 1
        slots = [s + (x - min(xa)) // step * box for s, x in zip(slots, xa)]
        box *= (max(xa) - min(xa) + max(xb) - min(xb)) // step + 1
    dense = box * ring._PAIRS_PER_SLOT <= pairs
    if len(a) <= ring._SHIFT_TERMS and box <= 2 * pairs and (not dense or max(slots) >= 4 * len(a)):
        return "shift"
    return "kronecker" if dense else "dict"
