"""The benchmark's traced child names curvedt functions that must exist.

``curvebench/trace_child.py`` wraps curvedt functions by name and reads
the ``lru_cache`` statistics of the cached ones.  A refactor that
renames or deletes one of them, or drops a cache, would otherwise only
break traced benchmark runs.
"""

import importlib
from pathlib import Path

import pytest

CURVEBENCH = Path(__file__).resolve().parents[1] / "curvebench"


@pytest.fixture
def trace_child(monkeypatch):
    monkeypatch.syspath_prepend(str(CURVEBENCH))
    return importlib.import_module("trace_child")


def test_every_span_names_a_function(trace_child):
    for module, names in trace_child.SPANS.items():
        for attr in names:
            assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"


def test_every_cached_function_has_cache_info(trace_child):
    for key, fn in trace_child.CACHED.items():
        assert callable(getattr(fn, "cache_info", None)), f"{key} is no longer cached"


def test_sums_do_not_nest_elem_add_spans(monkeypatch):
    # The traced child times ring_sum and RingElem.__add__ under one span
    # name, ring.elem_add.  Neither may call the other, nor may == or a
    # denominator's expansion call either; the spans would then nest, and
    # ring.elem_add.calls would count work that the parent did not count.
    from curvedt import ring

    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ring, "ring_sum", counting("ring_sum", ring.ring_sum))
    a = ring.RingElem(ring.lefschetz(1), ring.CycloDenominator.of(1))
    b = ring.RingElem.one()
    assert a + b == ring.RingElem(ring.LaurentPoly.one(), ring.CycloDenominator.of(1))
    assert not (a == b) and a - b == a + (-b)
    assert calls == []
    monkeypatch.setattr(ring.RingElem, "__add__", counting("add", ring.RingElem.__add__))
    ring.ring_sum([a, b])
    assert a == a and ring.CycloDenominator.of(1, 2).expand() == ring.CycloDenominator.of(2, 1).expand()
    assert ring.specialize_elem(a)[1] == ring.UniPoly({0: 1, 4: -1})
    assert calls == ["ring_sum"]


def test_run_suite_looks_up_each_check_by_name(monkeypatch):
    # The traced child rebinds verify.check_* to timing wrappers.  A
    # run_suite that held its own references to the functions (say, a
    # module-level tuple) would bypass them, and every verify.check.* span
    # would vanish without an error.
    from curvedt import verify

    names = [attr for attr in vars(verify) if attr.startswith("check_")]
    assert "check_torsion" in names and len(names) == 12
    for attr in names:
        monkeypatch.setattr(verify, attr, lambda *a, name=attr: verify.CheckResult(name, "PASS", "stub"))
    rows = verify.run_suite()
    assert sorted(row.name for row in rows) == sorted(names)
    assert verify.CheckResult("check_torsion", "PASS", "stub") in rows
