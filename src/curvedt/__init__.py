"""Exact Donaldson-Thomas invariants and intersection-cohomology Betti
numbers for moduli spaces of semistable vector bundles on smooth
projective curves, together with a combinatorial certifier for the
virtual-smallness bound of the associated framed moduli maps.

The commonly used entry points are re-exported here:

>>> from curvedt import ih_poincare
>>> ih_poincare(2, 2, 1).betti
(1, 4, 7, 12, 24, 32, 24, 12, 7, 4, 1)
"""

from .closedforms import (
    ih_closed_form_check,
    poincare_closed_form,
    q_rank_closed_form_check,
    resolution_check,
)
from .invariants import (
    DTResult,
    VerificationError,
    determinant_factor,
    dim_moduli,
    hdt,
    ih_poincare,
    torsion_dt,
)
from .ring import LaurentPoly, NotDivisibleError, RingElem, UniPoly
from .strata import (
    SmallnessReport,
    StratumType,
    certify_virtual_smallness,
    enumerate_strata,
)
from .verify import run_suite

__version__ = "0.1.0"

__all__ = [
    "DTResult",
    "LaurentPoly",
    "NotDivisibleError",
    "RingElem",
    "SmallnessReport",
    "StratumType",
    "UniPoly",
    "VerificationError",
    "certify_virtual_smallness",
    "determinant_factor",
    "dim_moduli",
    "enumerate_strata",
    "hdt",
    "ih_closed_form_check",
    "ih_poincare",
    "poincare_closed_form",
    "q_rank_closed_form_check",
    "resolution_check",
    "run_suite",
    "torsion_dt",
    "__version__",
]
