"""Every name a curvedt module imports is used in that module, every
module-level private definition is referenced somewhere in the package,
a polynomial's storage is read and written by ``ring.py`` only, no
module imports ``warnings`` or takes a ``checks`` parameter, and
``UniPoly`` and ``series_mul`` have no consumers beyond their known ones,
nor ``SymPoly`` and its conversion to u, v beyond the pipeline's.

Parsed with the standard-library ``ast``, so nothing is imported or run.
``from __future__`` imports are exempt, and so are names a module lists in
``__all__`` (the package ``__init__`` imports only to re-export).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "curvedt"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations ("LaurentPoly") and __all__ entries
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{path.name}:{line} {name}" for line, name in _imported(tree) if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)


def _module_private_names(tree):
    """Module-level ``_private`` functions, classes and constants (no dunders)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def test_no_unused_private_definitions():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SRC.glob("*.py")}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = [
        f"{name}:{line} {private}"
        for name, tree in sorted(trees.items())
        for line, private in _module_private_names(tree)
        if private not in referenced
    ]
    assert not unused, "private definitions never referenced: " + ", ".join(unused)


def test_no_module_imports_warnings_and_no_function_takes_checks():
    """Every consistency check raises: nothing warns, and no mode turns a check off."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Import) and any(a.name == "warnings" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "warnings")
        or (isinstance(node, ast.arg) and node.arg == "checks")
    ]
    assert not found, "warnings imported or a checks parameter: " + ", ".join(found)


STORAGE = ("_ints", "_scale")


def test_polynomial_storage_stays_in_ring():
    """No module but ring.py names the storage slots, as an attribute or a string."""
    leaks = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "ring.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in STORAGE)
        or (isinstance(node, ast.Constant) and node.value in STORAGE)
    ]
    assert not leaks, "polynomial storage used outside ring.py: " + ", ".join(leaks)


# name -> the only modules that may name it in code; the string export table of
# __init__ does not count.  Fewer consumers keep a later deletion a pure deletion.
CONSUMERS = {
    "UniPoly": ("ring.py", "closedforms.py"),
    "series_mul": ("series.py",),
}


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):  # the imported name and its local name
            yield from ((node.lineno, name) for name in (node.name, node.asname) if name)
        elif isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def _outside(consumers):
    return [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _names(ast.parse(path.read_text(), filename=str(path)))
        if name in consumers and path.name not in consumers[name]
    ]


def test_unipoly_and_series_mul_have_no_new_consumers():
    found = _outside(CONSUMERS)
    assert not found, "names used outside their modules: " + ", ".join(found)


# The pipeline computes in s = u + v (SymPoly) and converts to u, v in
# invariants.hdt and closedforms only; nothing else sees the (s, L) form.
SYMMETRIC = {name: ("ring.py", "invariants.py", "closedforms.py") for name in ("SymPoly", "to_laurent")}


def test_symmetric_basis_stays_in_the_pipeline():
    found = _outside(SYMMETRIC)
    assert not found, "names used outside their modules: " + ", ".join(found)
