"""Canonical JSON from the CLI: the template writers and slope-mode lists.

``strata``, ``betti`` and ``hdt --format json`` (torsion mode too)
assemble each report's text from templates and write a slope-mode list
one report at a time.  Both must equal ``json.dumps(..., sort_keys=True,
indent=2)`` of the plain dict forms built here by ``strata_dict``,
``dt_dict`` and ``hdt_only_dict``, whose term lists come from
``polyref.records``.  Every JSON output of the class commands must also
survive a parse and re-dump byte for byte.  Hypothesis runs derandomized.
"""

import contextlib
import io
import json
import os
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import polyref as ref
from curvedt import cli
from curvedt.invariants import hdt, ih_poincare, torsion_dt
from curvedt.strata import certify_virtual_smallness

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None, database=None)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def strata_dict(rep) -> dict:
    """The JSON object of one strata report."""
    return {
        "genus": rep.genus,
        "rank": rep.rank,
        "degree": rep.degree,
        "d0": rep.d0,
        "generic": rep.generic,
        "in_theorem_range": rep.in_theorem_range,
        "strata": [
            {
                "parts": [[[r_i, d_i], m] for (r_i, d_i), m in rec.stratum.parts],
                "codim": rec.codim,
                "bound": str(rec.bound),
                "maximal": rec.stratum.is_maximal,
                "pass": rec.passes,
            }
            for rec in rep.records
        ],
        "verdict": rep.verdict,
    }


def strata_text(rep) -> str:
    """The CLI's JSON of one strata report, streamed from the certificate's rows."""
    from curvedt.strata import stratum_rows

    verdicts = []
    rows = stratum_rows(rep.genus, rep.rank, rep.degree, rep.generic)
    text = "".join(cli._strata_chunks(rep[:6], rows, verdicts))
    assert verdicts == [rep.verdict]
    return text


def dt_dict(res) -> dict:
    """The JSON object of one betti/hdt class."""
    return {
        "genus": res.genus,
        "rank": res.rank,
        "degree": res.degree,
        "dim": res.dim,
        "hdt": ref.records(res.hdt.terms),
        "ih_epoly": ref.records(res.ih.terms),
        "betti": list(res.betti),
    }


def hdt_only_dict(g, r, d, h) -> dict:
    """The JSON object of an hdt class without dim and Betti numbers: torsion
    mode (rank 0), and genus <= 1 with gcd(r, d) != 1, where dim M(r,d) =
    (g-1)r^2 + 1 does not hold."""
    return {"genus": g, "rank": r, "degree": d, "hdt": ref.records(h.terms)}




def assert_same_text(got: str, want: str) -> None:
    """got == want, failing with the first difference only: pytest's own
    diff of two long texts takes minutes, once per shrinking step."""
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        raise AssertionError(f"texts differ at {i}: {got[i - 60:i + 60]!r} != {want[i - 60:i + 60]!r}")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


@SETTINGS
@given(
    g=st.integers(2, 5),
    r=st.integers(1, 12),
    slope=st.fractions(min_value=-12, max_value=12, max_denominator=12),
    generic=st.booleans(),
)
def test_strata_text_equals_canonical_dump(g, r, slope, generic):
    d = int(slope * r)  # either sign, in and out of the theorem range
    rep = certify_virtual_smallness(g, r, d, generic)
    assert_same_text(strata_text(rep), canonical(strata_dict(rep)))


@SETTINGS
@given(
    g=st.integers(0, 1),
    r=st.integers(1, 6),
    d=st.integers(-12, 12),
    generic=st.booleans(),
)
def test_strata_text_low_genus_coprime(g, r, d, generic):
    assume(Fraction(d, r).denominator == r)
    assume(g == 1 or r == 1)  # the moduli domain: dim M(r,d) = 1 - r^2 at genus 0
    # at genus 0 the framing d + r is not positive on slopes in (-2, -1]
    assume(not (g == 0 and -2 * r < d <= -r))
    rep = certify_virtual_smallness(g, r, d, generic)
    assert len(rep.records) == 1
    assert_same_text(strata_text(rep), canonical(strata_dict(rep)))


@SETTINGS
@given(
    g=st.integers(2, 4),
    slope=st.fractions(min_value=-6, max_value=12, max_denominator=3),
    extra=st.integers(0, 6),
    generic=st.booleans(),
)
def test_strata_cli_matches_canonical_dump(g, slope, extra, generic):
    q = slope.denominator
    rmax = q + extra
    flags = ["--generic-bound"] if generic else []
    code, out = run_cli("strata", "-g", str(g), f"--slope={slope}", "--rmax", str(rmax),
                        "--format", "json", *flags)
    reports = [certify_virtual_smallness(g, r, r * slope.numerator // q, generic)
               for r in range(q, rmax + 1, q)]
    assert code == 0
    assert_same_text(out, canonical([strata_dict(rep) for rep in reports]) + "\n")
    last = reports[-1]
    code, out = run_cli("strata", "-g", str(g), "-r", str(last.rank), "-d", str(last.degree),
                        "--format", "json", *flags)
    assert code == 0
    assert_same_text(out, canonical(strata_dict(last)) + "\n")


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(
    command=st.sampled_from(("betti", "detfactor", "hdt", "strata")),
    g=st.integers(2, 3),
    slope=st.fractions(min_value=-8, max_value=8, max_denominator=4),
    rmax=st.integers(1, 4),
)
def test_cli_json_round_trip(command, g, slope, rmax):
    assume(slope.denominator <= rmax)
    code, out = run_cli(command, "-g", str(g), f"--slope={slope}", "--rmax", str(rmax),
                        "--format", "json")
    assert code == 0
    assert_same_text(out, canonical(json.loads(out)) + "\n")


@pytest.mark.parametrize("argv", [
    "hdt -g 2 -r 3 -d 1",
    "betti -g 3 -r 2 -d -1",
    "hdt -g 2 --slope=1/2 --rmax 4",
    "betti -g 2 --slope=1/2 --rmax 4",
    "hdt -g 1 -r 2 -d 1 --force-genus",
    "hdt -g 1 -r 2 -d 0 --force-genus",  # HDT = 0: empty term lists
])
def test_dt_json_equals_canonical_dump(argv):
    code, out = run_cli(*argv.split(), "--format", "json")
    assert code == 0
    args = cli.build_parser().parse_args(argv.split())
    wants = []
    for r, d in cli._classes(args):
        if args.genus <= 1 and gcd(r, d) != 1:  # no ih_poincare: dim M(r,d) does not hold
            wants.append(hdt_only_dict(args.genus, r, d, hdt(args.genus, r, d)))
            continue
        res = ih_poincare(args.genus, r, d)
        assert_same_text(cli._dt_json(res), canonical(dt_dict(res)))
        wants.append(dt_dict(res))
    want = wants if args.slope is not None else wants[0]
    assert_same_text(out, canonical(want) + "\n")


@pytest.mark.parametrize("argv", [
    "hdt -g 2 -r 0 -d 1",
    "hdt -g 2 -r 0 -d 3",
    "hdt -g 3 -r 0 -d 2",
    "hdt -g 1 -r 0 -d 2 --force-genus",
])
def test_torsion_json_equals_canonical_dump(argv):
    code, out = run_cli(*argv.split(), "--format", "json")
    assert code == 0
    args = cli.build_parser().parse_args(argv.split())
    h = torsion_dt(args.genus, args.degree)[args.degree]
    assert_same_text(out, canonical(hdt_only_dict(args.genus, 0, args.degree, h)) + "\n")
