"""Traced run of one curvedt command.

    PYTHONPATH=src python curvebench/trace_child.py SPANS_JSON ARG...

Wraps the public entry points of each curvedt module, and the
LaurentPoly, UniPoly and RingElem operators, then runs
``curvedt.cli.main([ARG...])`` with stdout untouched.  Spans (name,
start, end, parent index) and counters stay in memory and are written
to SPANS_JSON at exit, so recording does no I/O while curvedt runs.
Span times are the thread's CPU time, so a probe sharing the CPU (see
``run.SpeedProbe``) does not inflate them.  ``run.py`` turns the spans
into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
from time import thread_time

import curvedt
from curvedt import cli, closedforms, invariants, ring, series, strata, verify

# Public functions timed as spans, named "<layer>.<span>".
SPANS = {
    ring: {"ring_sum": "ring.elem_add", "exact_divide_cyclo": "ring.divide"},
    series: {
        "pleth_log": "series.pleth_log",
        "pleth_exp": "series.pleth_exp",
        "series_mul": "series.series_mul",
    },
    invariants: {
        "zeta_series": "invariants.zeta_series",
        "q_rank": "invariants.q_rank",
        "q_class": "invariants.q_class",
        "hdt": "invariants.hdt",
        "ih_poincare": "invariants.ih_poincare",
        "determinant_factor": "invariants.determinant_factor",
        "torsion_dt": "invariants.torsion_dt",
    },
    closedforms: {
        "ih_closed_form_check": "closedforms.checks",
        "q_rank_closed_form_check": "closedforms.checks",
        "resolution_check": "closedforms.checks",
    },
    strata: {
        "enumerate_strata": "strata.enumerate",
        "build_fiber_quiver": "strata.quiver",
        "smallness_bound": "strata.bound",
        "certify_virtual_smallness": "strata.certify",
    },
}
CACHED = {"invariants.q_rank": invariants.q_rank, "invariants.q_class": invariants.q_class}


class Tracer:
    """In-memory span stack plus named counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = [-1]
        self.counters = {}

    def wrap(self, name, fn, after=None):
        """fn timed as a span; after(span, result, *args) runs outside it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1]]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = thread_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = thread_time()
                self.stack.pop()
            if after is not None:
                after(span, out, *args)
            return out

        return traced

    def add(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def high(self, key, n):
        self.counters[key] = max(self.counters.get(key, 0), n)


def _replace_everywhere(original, replacement):
    """Rebind every curvedt module attribute that is ``original``; modules
    import each other's functions by name."""
    for name, module in list(sys.modules.items()):
        if name == "curvedt" or name.startswith("curvedt."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _products_only(cls, plain, traced):
    """Operator that traces products of two ``cls`` values, not scalings."""

    def mul(self, other):
        return (traced if isinstance(other, cls) else plain)(self, other)

    return mul


def install(tracer):
    def poly_product(span, out, a, b):
        tracer.add("ring.mul.coeff_pairs", len(a.terms) * len(b.terms))
        tracer.high("ring.mul.max_terms", len(out.terms))
        tracer.high(
            "ring.mul.max_coeff_bits",
            max(
                (max(c.numerator.bit_length(), c.denominator.bit_length())
                 for c in out.terms.values()),
                default=0,
            ),
        )

    def uni_product(span, out, a, b):
        tracer.add("ring.unipoly_mul.coeff_pairs", len(a.terms) * len(b.terms))

    def den_factors(span, out, *args):
        if isinstance(out, ring.RingElem):
            tracer.high("ring.den.max_factors", len(out.den.factors))

    def stratum_types(span, out, *args):
        tracer.add("strata.types", len(out))

    def check_name(span, out, *args):
        span[0] = "verify.check." + out.name

    after = {"ring.elem_add": den_factors, "strata.enumerate": stratum_types}
    for module, names in SPANS.items():
        for attr, span in names.items():
            original = getattr(module, attr)
            _replace_everywhere(original, tracer.wrap(span, original, after.get(span)))
    for attr, original in list(vars(verify).items()):
        if attr.startswith("check_") and callable(original):
            _replace_everywhere(original, tracer.wrap("verify.check", original, check_name))

    for cls, span, hook in (
        (ring.LaurentPoly, "ring.mul", poly_product),
        (ring.UniPoly, "ring.unipoly_mul", uni_product),
    ):
        plain = cls.__mul__
        cls.__mul__ = _products_only(cls, plain, tracer.wrap(span, plain, hook))
    ring.RingElem.__add__ = tracer.wrap("ring.elem_add", ring.RingElem.__add__, den_factors)


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = 1
    try:
        code = tracer.wrap("cli.main", cli.main)(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        for key, cached in CACHED.items():
            info = cached.cache_info()
            tracer.counters[key + ".hits"] = info.hits
            tracer.counters[key + ".misses"] = info.misses
        with open(spans_path, "w") as f:
            json.dump(
                {"curvedt": curvedt.__file__, "spans": tracer.spans, "counters": tracer.counters},
                f,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
