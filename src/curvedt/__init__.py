"""Exact Donaldson-Thomas invariants and intersection-cohomology Betti
numbers for moduli spaces of semistable vector bundles on smooth
projective curves, together with a combinatorial certifier for the
virtual-smallness bound of the associated framed moduli maps.

The commonly used entry points are re-exported here; each submodule is
imported on first use of one of its names, so ``import curvedt`` loads
none of them:

>>> from curvedt import ih_poincare
>>> ih_poincare(2, 2, 1).betti
(1, 4, 7, 12, 24, 32, 24, 12, 7, 4, 1)
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "closedforms": ("ih_closed_form_check", "poincare_closed_form",
                    "q_rank_closed_form_check", "resolution_check"),
    "invariants": ("DTResult", "VerificationError", "determinant_factor", "dim_moduli",
                   "hdt", "ih_poincare", "torsion_dt"),
    "ring": ("DomainError", "LaurentPoly", "NotDivisibleError", "RingElem", "UniPoly"),
    "strata": ("SmallnessReport", "StratumType", "certify_virtual_smallness",
               "enumerate_strata"),
    "verify": ("run_suite",),
}
_SUBMODULES = frozenset((*_HOMES, "cli", "series"))
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME) + ["__version__"]


def __getattr__(name: str):
    """A public name from its home module, or a submodule not yet imported (PEP 562)."""
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
