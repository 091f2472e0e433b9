"""Reference enumeration of stratum-type multisets, for differential tests.

This is ``curvedt.strata._pair_multisets`` as it was before the
enumeration built its list directly: a recursive generator over the
list of all (k, m) pairs with k*m <= total.  It serves as the oracle
for the order and content of the current enumeration.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple


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
