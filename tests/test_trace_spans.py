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
