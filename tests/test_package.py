"""The package surface and what a cold process imports.

``curvedt/__init__`` re-exports its public names lazily (PEP 562), so a
command loads only the modules it runs: ``betti``, ``hdt`` and
``detfactor`` never import the stratum certifier, the verify registry,
the closed forms or ``dataclasses``.  Module sets are read in fresh
interpreters and compared with that of a bare ``python -c``, so modules
a site hook preloads do not count.  The package docstring and the
README's "Library" block run as doctests.
"""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import pytest

import curvedt

ROOT = Path(__file__).resolve().parent.parent
PUBLIC = [
    "DTResult", "DomainError", "LaurentPoly", "NotDivisibleError", "RingElem", "SmallnessReport",
    "StratumType", "UniPoly", "VerificationError", "certify_virtual_smallness",
    "determinant_factor", "dim_moduli", "enumerate_strata", "hdt", "ih_closed_form_check",
    "ih_poincare", "poincare_closed_form", "q_rank_closed_form_check", "resolution_check",
    "run_suite", "torsion_dt", "__version__",
]
SUBMODULES = ("cli", "closedforms", "invariants", "ring", "series", "strata", "verify")
# what a betti, hdt or detfactor run must not import
UNUSED = ("curvedt.strata", "curvedt.verify", "curvedt.closedforms", "dataclasses", "inspect")


def _modules(code: str, *argv: str) -> set:
    """sys.modules of a fresh interpreter after running code with sys.argv[1:] = argv."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = code + "\nimport sys\nprint(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


# cli.main with stdout discarded; prints the exit code as a pseudo-module name
RUN_CLI = """
import os, sys
from curvedt import cli
sys.stdout = open(os.devnull, "w")
code = cli.main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(f"exit={code}")
"""


@pytest.fixture(scope="module")
def bare() -> set:
    return _modules("pass")


@pytest.mark.parametrize("argv", [
    "betti -g 2 -r 3 -d 1",
    "betti -g 2 -r 2 -d 1 --format json",
    "hdt -g 2 -r 2 -d 1 --format csv",
    "hdt -g 2 -r 0 -d 1",
    "detfactor -g 2 -r 3 -d 1 --format json",
])
def test_sequence_commands_import_no_strata_verify_or_dataclasses(bare, argv):
    loaded = _modules(RUN_CLI, *argv.split()) - bare
    assert "exit=0" in loaded and "curvedt.invariants" in loaded
    assert not loaded.intersection(UNUSED), sorted(loaded.intersection(UNUSED))


@pytest.mark.parametrize("argv, needed", [
    ("strata -g 2 -r 2 -d 6", {"curvedt.strata"}),
    ("verify --quick", {"curvedt.verify", "curvedt.closedforms", "curvedt.strata"}),
])
def test_strata_and_verify_load_their_modules(bare, argv, needed):
    loaded = _modules(RUN_CLI, *argv.split()) - bare
    assert "exit=0" in loaded and needed <= loaded


def test_import_curvedt_loads_no_submodule_until_used():
    code = "\n".join([
        "import sys, curvedt",
        "assert not [m for m in sys.modules if m.startswith('curvedt.')]",
        *(f"assert curvedt.{m} is sys.modules['curvedt.{m}']" for m in SUBMODULES),
    ])
    assert {f"curvedt.{m}" for m in SUBMODULES} <= _modules(code)


def test_public_names_are_the_objects_of_their_home_modules():
    assert curvedt.__all__ == PUBLIC
    for name in PUBLIC[:-1]:
        obj = getattr(curvedt, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("curvedt.") and getattr(home, name) is obj
    assert curvedt.hdt is curvedt.invariants.hdt
    assert curvedt.certify_virtual_smallness is curvedt.strata.certify_virtual_smallness


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from curvedt import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {
        name: getattr(curvedt, name) for name in PUBLIC
    }


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        curvedt.no_such_name
    with pytest.raises(ImportError):
        exec("from curvedt import no_such_name", {})
    assert set(PUBLIC) | set(SUBMODULES) <= set(dir(curvedt))


def test_package_docstring_runs():
    assert doctest.testmod(curvedt).failed == 0


def test_readme_library_block_runs():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted >= 3 and result.failed == 0
