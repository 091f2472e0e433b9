"""The plethystic Log at high order against the m-loop quiver (Reineke).

The m-loop quiver's generating series of stack motives is

    A(t) = 1 + sum_{d >= 1} L^((1 - m) d^2 / 2) t^d / prod_{i=1..d} (1 - L^i),

and Omega_d = (L^(1/2) - L^(-1/2)) Log(A)_d is a Laurent polynomial in
(uv)^(1/2) (integrality).  Its coefficients sum to (-1)^((m-1)d) DT_d^(m),
Reineke's numerical DT invariant, and every coefficient of
(-1)^((m-1)d) Omega_d is nonnegative (Efimov's positivity).  A coprime
curve class never reaches the Log's correction terms, so this checks
them at orders the curve invariants only reach at non-coprime classes.
The test drives the public ring and series API only; the reference is
``quiverref``.
"""

import pytest

from curvedt.ring import CycloDenominator, RingElem, half_lefschetz
from curvedt.series import pleth_log
from quiverref import loop_quiver_dt, mobius

# (loops m, the largest dimension d checked)
ORDERS = [(1, 10), (2, 20), (3, 20), (4, 16), (5, 10)]


def omegas(m, dmax):
    """Omega_1 .. Omega_dmax of the m-loop quiver, each a LaurentPoly."""
    a = [RingElem.one()] + [
        RingElem(half_lefschetz((1 - m) * d * d), CycloDenominator.of(*range(1, d + 1)))
        for d in range(1, dmax + 1)
    ]
    kappa = half_lefschetz(1) - half_lefschetz(-1)
    return [(x * kappa).to_polynomial() for x in pleth_log(tuple(a))[1:]]


@pytest.fixture(scope="module", params=ORDERS, ids=[f"m={m}" for m, _ in ORDERS])
def quiver(request):
    m, dmax = request.param
    return m, omegas(m, dmax)


def test_reference_values():
    assert [mobius(n) for n in range(1, 13)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
    assert [loop_quiver_dt(1, d) for d in range(1, 6)] == [1, 0, 0, 0, 0]
    assert [loop_quiver_dt(2, d) for d in range(1, 6)] == [1, 1, 1, 2, 5]
    assert [loop_quiver_dt(3, d) for d in range(1, 6)] == [1, 1, 3, 10, 40]


def test_log_gives_reineke_invariants(quiver):
    m, omega = quiver
    got = [(-1) ** ((m - 1) * d) * sum(w.terms.values()) for d, w in enumerate(omega, 1)]
    assert got == [loop_quiver_dt(m, d) for d in range(1, len(omega) + 1)]


def test_log_is_integral_and_positive(quiver):
    """Every Omega_d has integer coefficients on powers of uv alone, all of sign
    (-1)^((m-1)d) (Efimov)."""
    m, omega = quiver
    for d, w in enumerate(omega, 1):
        assert all(a == b for a, b in w.terms)
        assert all(type(c) is int and (-1) ** ((m - 1) * d) * c >= 0 for c in w.terms.values())
