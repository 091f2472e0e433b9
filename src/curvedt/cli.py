"""Command-line front end.

Subcommands:

* ``betti`` — Betti numbers of intersection cohomology of M(r,d);
* ``hdt`` — the Donaldson-Thomas invariant HDT_{r,d} (rank 0 with
  d >= 1 switches to the torsion-sheaf invariants);
* ``detfactor`` — the fixed-determinant factor of the Poincare
  polynomial (quotient by (1-y)^(2g));
* ``strata`` — the Luna-stratum virtual-smallness certificate;
* ``verify`` — the built-in golden-table and property suites.

A class is selected either by ``-r/-d`` or by ``--slope p/q --rmax N``
(all ranks up to N along one slope).  Slope mode writes each class as
soon as it is computed, in every command and format, so a later class's
fault leaves the earlier classes on stdout; text leaves in blocks of about
8 KB, and a fault within a ``strata`` class leaves its JSON or CSV rows
so far.  Output formats: a human table (default), canonical JSON (sorted
keys, two-space indent, no floats — re-serializing parsed output is
byte-identical), or CSV.

Exit codes: 0 success; 1 verification failure only (a consistency
assertion tripped, a division left a remainder, a certificate or suite
failed); 2 usage or domain error, including a class (g, r, d) outside
the domain: rank below 1 (``hdt`` allows rank 0, torsion mode, with
degree >= 1), negative genus, or negative dim M(r,d) = (g-1) r^2 + 1,
and any ValueError the library raises (printed as ``error: ...``, no
traceback); 141 (128 + SIGPIPE) when the reader closes stdout early,
e.g. ``| head``, with nothing on stderr.

Exact numbers only: integers print as integers, rationals as p/q, and
half-integer exponents as ^(1/2), ^(-3/2), and so on.  Polynomials
print with terms sorted by total degree, then by u-degree (u before v).
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .invariants import (
    DTResult,
    VerificationError,
    betti_numbers,
    check_domain,
    class_label,
    determinant_factor,
    dim_moduli,
    hdt,
    ih_poincare,
    torsion_dt,
)
from .ring import DomainError, LaurentPoly, NotDivisibleError, Scalar

__all__ = ["main", "ReportTable"]


class ReportTable(NamedTuple):
    """Aligned text table; every cell an exact-number string."""

    headers: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...]

    def render(self) -> str:
        lines = (self.headers, *self.rows)
        widths = [max(map(len, column)) for column in zip(*lines)]
        return "\n".join("  ".join(map(str.ljust, row, widths)).rstrip() for row in lines)

    def render_csv(self) -> str:
        return "".join(self.csv_lines())

    def csv_lines(self) -> Iterator[str]:
        """The CSV text a line at a time, as the rows come (they may be an
        iterator): each line after the first starts with its newline."""
        import csv
        from types import SimpleNamespace
        line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow  # returns write's value
        yield line(self.headers)[:-1]
        for row in self.rows:
            yield "\n" + line(row)[:-1]


def _canonical_json(obj) -> str:
    import json
    return json.dumps(obj, sort_keys=True, indent=2)


def _exp_str(e2: int) -> str:
    """Exponent markup for a doubled exponent e2 (the power is e2/2)."""
    if e2 == 2:
        return ""
    if e2 % 2 == 0:
        e = e2 // 2
        return f"^{e}" if e >= 0 else f"^({e})"
    return f"^({e2}/2)"


def _coeff_str(c: Scalar) -> str:
    return str(c) if c.denominator == 1 else f"({c})"


def _join_terms(terms: List[Tuple[Scalar, str]]) -> str:
    """Assemble [(coefficient, monomial-string), ...] into a sum."""
    if not terms:
        return "0"
    parts: List[str] = []
    for i, (c, mono) in enumerate(terms):
        mag = abs(c)
        if mono:
            body = mono if mag == 1 else _coeff_str(mag) + mono
        else:
            body = _coeff_str(mag)
        if i == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def render_poly(p: LaurentPoly) -> str:
    """Human form of a two-variable Laurent polynomial in u, v."""
    terms = []
    for (eu2, ev2), c in sorted(p.terms.items(), key=lambda mc: (sum(mc[0]), mc[0])):
        mono = ""
        if eu2:
            mono += "u" + _exp_str(eu2)
        if ev2:
            mono += "v" + _exp_str(ev2)
        terms.append((c, mono))
    return _join_terms(terms)


def _parse_slope(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid slope {text!r}: {exc}")


def _add_class_args(parser: argparse.ArgumentParser, torsion_ok: bool = False):
    parser.add_argument("-g", "--genus", type=int, required=True)
    parser.add_argument("-r", "--rank", type=int, help="rank of the class"
                        + (" (0 selects torsion mode)" if torsion_ok else ""))
    parser.add_argument("-d", "--degree", type=int, help="degree of the class")
    parser.add_argument(
        "--slope",
        type=_parse_slope,
        help="slope p/q; with --rmax, runs every rank q, 2q, ... up to N "
        "(write a negative slope as --slope=-p/q)",
    )
    parser.add_argument("--rmax", type=int, help="largest rank in slope mode")
    parser.add_argument("--format", dest="fmt", choices=("table", "json", "csv"), default="table")
    parser.add_argument(
        "--force-genus",
        action="store_true",
        help="allow genus < 2 for exploratory runs (the consistency checks still run)",
    )


def _config(args: argparse.Namespace) -> argparse.Namespace:
    """args, validated: any class outside the command's domain is a usage error."""
    parser = args.parser
    slope_mode = args.slope is not None or args.rmax is not None
    class_mode = args.rank is not None or args.degree is not None
    if slope_mode and class_mode:
        parser.error("give either -r/-d or --slope/--rmax, not both")
    if slope_mode and (args.slope is None or args.rmax is None):
        parser.error("slope mode needs both --slope and --rmax")
    if not slope_mode and (args.rank is None or args.degree is None):
        parser.error("give -r and -d, or --slope and --rmax")
    if slope_mode and args.rmax < args.slope.denominator:
        parser.error(
            f"--rmax {args.rmax} is below the slope denominator "
            f"{args.slope.denominator}; no class has that slope"
        )
    if 0 <= args.genus < 2 and not args.force_genus:
        parser.error(
            f"genus {args.genus} is below 2; pass --force-genus for exploratory runs"
        )
    torsion_ok = args.command == "hdt"
    for r, d in _classes(args):
        where = class_label(args.genus, r, d)
        try:
            check_domain(args.genus, r, d)
            if r < 1 and not (torsion_ok and r == 0):
                parser.error(f"{where}: rank must be >= 1"
                             + (" (0 selects torsion mode)" if torsion_ok else ""))
            if r == 0 and d < 1:
                parser.error(f"{where}: torsion mode (rank 0) needs degree >= 1")
            # hdt needs dim M(r,d) >= 0 only: where the formula fails, it prints HDT alone
            check_domain(args.genus, r, d, moduli=not torsion_ok or dim_moduli(args.genus, r) < 0)
        except DomainError as exc:
            parser.error(str(exc))
        framing = d + (1 - args.genus) * r
        if args.command == "strata" and d > (2 * args.genus - 2) * r and framing <= 0:
            parser.error(f"{where}: framing d + (1-g)r = {framing} is not positive although "
                         "d/r > 2g-2; the stratum model needs d/r > g-1")
    return args


def _classes(args: argparse.Namespace) -> List[Tuple[int, int]]:
    if args.slope is None:
        return [(args.rank, args.degree)]
    p, q = args.slope.numerator, args.slope.denominator
    return [(r, r * p // q) for r in range(q, args.rmax + 1, q)]


def _report(args: argparse.Namespace, compute: Callable, payload: Callable,
            block: Callable) -> None:
    """Each class computed, written and dropped before the next is computed.

    JSON: one payload, or a list in slope mode; else blocks joined by blank
    lines.  item = compute((r, d)); payload(item, pad) is its canonical JSON
    in pieces, every line after the first starting with pad ("  " in a list);
    block(item) is its text, or the text in pieces; payload and block are
    only called for the format printed.  The pieces leave in blocks of at
    most 8 KB (a longer piece alone); a fault first writes the block so far.
    """
    pad = "  " if args.fmt == "json" and args.slope is not None else ""
    head, sep, tail = ("[\n  ", ",\n  ", "\n]\n") if pad else ("", "\n\n", "\n")
    for rd in _classes(args):
        item, out, size = compute(rd), [head], len(head)
        try:
            pieces = payload(item, pad) if args.fmt == "json" else block(item)
            for piece in (pieces,) if isinstance(pieces, str) else pieces:
                if size + len(piece) > io.DEFAULT_BUFFER_SIZE:
                    text, out, size = "".join(out), [], 0
                    sys.stdout.write(text)
                out.append(piece)
                size += len(piece)
        finally:
            sys.stdout.write("".join(out))
        head = sep
        del item, pieces
    sys.stdout.write(tail)


def _padded(text: str, pad: str) -> Tuple[str]:
    """text as payload pieces, pad after each newline (JSON escapes those in strings)."""
    return (text.replace("\n", "\n" + pad) if pad else text,)


class _PartJSON(dict):
    """part -> a ((r, d), m) part as canonical JSON at the depth of a report's
    parts, pad after each newline; one cache per pad (``_part_json``)."""

    def __init__(self, pad: str):
        self.indent = "\n" + pad + "        "

    def __missing__(self, part) -> str:
        text = self[part] = "        " + _canonical_json(part).replace("\n", self.indent)
        return text


_part_json = lru_cache(maxsize=None)(_PartJSON)
_JSON_BOOL = ("false", "true")
_VERDICT = ("FAIL", "PASS")
_STRATUM_JSON = (  # first %s: the report's head, then the separator
    '%s    {\n      "bound": "%s",\n      "codim": %d,\n      "maximal": %s,\n'
    '      "parts": [\n%s\n      ],\n      "pass": %s\n    }'
)


def _strata_chunks(head: tuple, rows: Iterable[tuple], verdicts: List[str],
                   pad: str = "") -> Iterator[str]:
    """A class's report as canonical JSON filled into a template, one piece per
    row of ``strata.stratum_rows`` as the rows come: no dict is built, nor the
    class held.  head is (genus, rank, degree, d0, in_theorem_range, generic);
    the verdict, written last, is also appended to verdicts.  pad starts every
    line after the first, so a slope-mode list is never indented by a copy.
    The certificate checks that codimension 0 marks the maximal type."""
    genus, rank, degree, d0, in_range, generic = head
    nl = "\n" + pad
    row, sep, part_json = _STRATUM_JSON.replace("\n", nl), "," + nl, _part_json(pad)
    lead = (
        f'{{\n  "d0": {d0},\n  "degree": {degree},\n'
        f'  "generic": {_JSON_BOOL[generic]},\n  "genus": {genus},\n'
        f'  "in_theorem_range": {_JSON_BOOL[in_range]},\n'
        f'  "rank": {rank},\n  "strata": [\n'
    ).replace("\n", nl)
    from .strata import _half  # one table of bound texts per class, one str per value
    ok, bound = True, lru_cache(maxsize=None)(lambda twice: str(_half(twice)))
    for stratum, codim, twice, passes in rows:
        yield row % (
            lead, bound(twice), codim, _JSON_BOOL[codim == 0],
            sep.join(map(part_json.__getitem__, stratum.parts)), _JSON_BOOL[passes],
        )
        lead, ok = sep, ok and passes
    verdicts.append(_VERDICT[ok])
    yield f'\n  ],\n  "verdict": "{verdicts[-1]}"\n}}'.replace("\n", nl)


def _terms_json(p: LaurentPoly) -> str:
    """p's terms as canonical JSON, indented to the depth of a top-level field.

    One {den, eu2, ev2, num} object per term, sorted by (eu2, ev2); [] for 0.
    """
    records = ",\n".join(
        f'    {{\n      "den": {c.denominator},\n      "eu2": {a},\n      "ev2": {b},\n'
        f'      "num": {c.numerator}\n    }}'
        for (a, b), c in sorted(p.terms.items())
    )
    return f"[\n{records}\n  ]" if records else "[]"


def _dt_json(res: DTResult) -> str:
    """res as canonical JSON, filled into a template: no dict is built."""
    betti = ",\n    ".join(map(str, res.betti))
    return (
        f'{{\n  "betti": [\n    {betti}\n  ],\n'
        f'  "degree": {res.degree},\n  "dim": {res.dim},\n  "genus": {res.genus},\n'
        f'  "hdt": {_terms_json(res.hdt)},\n  "ih_epoly": {_terms_json(res.ih)},\n'
        f'  "rank": {res.rank}\n}}'
    )


def _sequence_block(args: argparse.Namespace, head: str, name: str, column: str,
                    seq: Sequence[int]) -> str:
    """seq as CSV (k, column) or as head over a "name: ..." line; --half keeps the
    first half, which for a palindrome of 2 dim + 1 Betti numbers is b_0..b_dim."""
    shown = seq[: len(seq) // 2 + 1] if args.half else seq
    if args.fmt == "csv":
        rows = tuple((str(k), str(c)) for k, c in enumerate(shown))
        return ReportTable(("k", column), rows).render_csv()
    return f"{head}\n{'half ' if args.half else ''}{name}: " + ", ".join(map(str, shown))


def cmd_betti(args: argparse.Namespace) -> int:
    g = args.genus
    if args.fmt == "json":  # the payload carries hdt and ih_epoly: hdt's JSON on betti's domain
        return cmd_hdt(args)

    def block(item) -> str:
        (r, d), betti = item
        return _sequence_block(args, f"genus={g} rank={r} degree={d} dim={dim_moduli(g, r)}",
                               "Betti", "b_k", betti)

    _report(args, lambda rd: (rd, betti_numbers(g, *rd)), None, block)
    return 0


def cmd_hdt(args: argparse.Namespace) -> int:
    def compute(rd):
        # (rank, degree, DTResult, HDT polynomial); no DTResult, so no dim or
        # Betti numbers, in torsion mode and at genus <= 1 with gcd(r, d) != 1
        r, d = rd
        if r == 0:
            return r, d, None, torsion_dt(args.genus, d)[d]
        if args.genus <= 1 and gcd(r, d) != 1:
            return r, d, None, hdt(args.genus, r, d)
        res = ih_poincare(args.genus, r, d)
        return r, d, res, res.hdt

    def payload(item, pad: str) -> Tuple[str]:
        r, d, res, h = item
        return _padded(_dt_json(res) if res is not None else (
            f'{{\n  "degree": {d},\n  "genus": {args.genus},\n'
            f'  "hdt": {_terms_json(h)},\n  "rank": {r}\n}}'), pad)

    def block(item) -> str:
        r, d, res, h = item
        if args.fmt == "csv":
            table = ReportTable(
                ("eu2", "ev2", "num", "den"),
                tuple(
                    (str(a), str(b), str(c.numerator), str(c.denominator))
                    for (a, b), c in sorted(h.terms.items())
                ),
            )
            return table.render_csv()
        if res is None:
            torsion = " (torsion)" if r == 0 else ""
            return f"genus={args.genus} rank={r} degree={d}{torsion}\nHDT = {render_poly(h)}"
        # HDT(-y,-y) = sum of nonzero b_k y^(k - dim), the main theorem's reading of res.betti
        neg = [(b, "y" + _exp_str(2 * (k - res.dim)) if k != res.dim else "")
               for k, b in enumerate(res.betti) if b]
        return (
            f"genus={res.genus} rank={res.rank} degree={res.degree} dim={res.dim}\n"
            f"HDT = {render_poly(h)}\n"
            f"HDT(-y,-y) = {_join_terms(neg)}"
        )

    _report(args, compute, payload, block)
    return 0


def cmd_detfactor(args: argparse.Namespace) -> int:
    g = args.genus

    def payload(item, pad: str) -> Tuple[str]:
        r, d, coeffs = item
        return _padded(_canonical_json(dict(genus=g, rank=r, degree=d, detfactor=coeffs)), pad)

    def block(item) -> str:
        r, d, coeffs = item
        return _sequence_block(args, f"genus={g} rank={r} degree={d}", "factor", "c_k", coeffs)

    _report(args, lambda rd: (*rd, determinant_factor(g, betti_numbers(g, *rd))), payload, block)
    return 0


def cmd_strata(args: argparse.Namespace) -> int:
    from .strata import _half, report_head, stratum_rows

    g, generic, verdicts = args.genus, args.generic_bound, []

    def certify(rd) -> Tuple[tuple, Iterator[tuple]]:
        head = (g, *rd, *report_head(g, *rd), generic)
        if not verdicts and not head[4]:  # one slope: every warning before stdout
            sys.stderr.write(len(_classes(args)) * (
                f"warning: slope {Fraction(rd[1], rd[0])} is not above {2 * g - 2}: "
                "smallness is certified arithmetic only, outside the theorem's hypothesis\n"))
        return head, stratum_rows(g, *rd, generic)

    def rows(certified: Iterable[tuple]) -> Iterator[Tuple[str, ...]]:
        yes_no, ok = ("no", "yes"), True
        bound = lru_cache(maxsize=None)(lambda twice: str(_half(twice)))  # as in _strata_chunks
        for stratum, codim, twice, passes in certified:
            yield stratum.label(), str(codim), bound(twice), yes_no[codim == 0], yes_no[passes]
            ok = ok and passes
        verdicts.append(_VERDICT[ok])

    def block(item):  # CSV as the records come; a table needs every row for its widths
        (_, r, d, d0, in_range, _), certified = item
        table = ReportTable(("parts", "codim", "bound", "maximal", "pass"), rows(certified))
        if args.fmt == "csv":
            return table.csv_lines()
        return (  # the table's rows, then the verdict they leave
            f"genus={g} rank={r} degree={d} d0={d0} in-theorem-range={'yes' if in_range else 'no'}"
            f"{' (generic bound)' if generic else ''}\n{table.render()}\nverdict: {verdicts[-1]}"
        )

    _report(args, certify, lambda item, pad: _strata_chunks(*item, verdicts, pad), block)
    return 1 if "FAIL" in verdicts else 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    rmax = 3 if args.quick else 4
    results = run_suite(rmax=rmax)
    ok = all(res.ok for res in results)
    verdict = "PASS" if ok else "FAIL"
    if args.fmt == "json":
        checks = [res._asdict() for res in results]
        print(_canonical_json({"checks": checks, "rmax": rmax, "verdict": verdict}))
    else:
        table = ReportTable(
            ("check", "status", "detail"),
            tuple((res.name, res.status, res.detail) for res in results),
        )
        if args.fmt == "csv":
            print(table.render_csv())
        else:
            print(f"{table.render()}\nverdict: {verdict}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvedt",
        description=(
            "Exact Donaldson-Thomas invariants and intersection-cohomology "
            "Betti numbers of moduli of semistable bundles on a smooth "
            "projective curve"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_betti = sub.add_parser(
        "betti", help="Betti numbers of IH*(M(r,d))"
    )
    _add_class_args(p_betti)
    p_betti.add_argument("--half", action="store_true",
                         help="print b_0..b_dim only (table and CSV; JSON prints all)")
    p_betti.set_defaults(func=lambda a: cmd_betti(_config(a)), parser=p_betti)

    p_hdt = sub.add_parser("hdt", help="Donaldson-Thomas invariant HDT_{r,d}")
    _add_class_args(p_hdt, torsion_ok=True)
    p_hdt.set_defaults(func=lambda a: cmd_hdt(_config(a)), parser=p_hdt)

    p_det = sub.add_parser(
        "detfactor",
        help="fixed-determinant factor: Poincare polynomial over (1-y)^(2g)",
    )
    _add_class_args(p_det)
    p_det.add_argument("--half", action="store_true",
                       help="print the first half only (table and CSV; JSON prints all)")
    p_det.set_defaults(func=lambda a: cmd_detfactor(_config(a)), parser=p_det)

    p_strata = sub.add_parser("strata", help="Luna-stratum virtual-smallness certificate")
    _add_class_args(p_strata)
    p_strata.add_argument(
        "--generic-bound", dest="generic_bound", action="store_true",
        help="use the generic quiver estimate instead of the curve Euler form",
    )
    p_strata.set_defaults(func=lambda a: cmd_strata(_config(a)), parser=p_strata)

    p_verify = sub.add_parser("verify", help="run the built-in check suites")
    p_verify.add_argument(
        "--quick", action="store_true", help="cap golden/property checks at rank 3"
    )
    fmt = p_verify.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", action="store_const", dest="fmt", const="json",
        help="shorthand for --format json",
    )
    fmt.add_argument("--format", dest="fmt", choices=("table", "json", "csv"))
    p_verify.set_defaults(fmt="table", func=cmd_verify, parser=p_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # under the subcommand's usage line, like its other usage errors
        args.parser.error("unrecognized arguments: " + " ".join(extra))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (VerificationError, NotDivisibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush at
        # exit stays quiet, as the SIGPIPE note of the signal module docs shows.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
