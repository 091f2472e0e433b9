"""Output checks for the curvedt benchmark.

Every command's stdout is compared with references recorded at the seed
commit and tested for structural properties the theory guarantees.

References are keyed by (g, r, min(d mod r, -d mod r)).  That covers
every degree a seed can pick, because HDT_{r,d} = HDT_{r,d+r} (twist by
a degree-one line bundle) and HDT_{r,d} = HDT_{r,-d} (dual bundle), so
the Betti numbers, determinant factors and stratum tables agree too.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload and what its output must describe."""

    argv: Tuple[str, ...]
    kind: str  # "hdt" | "betti" | "detfactor" | "strata" | "verify"
    genus: int = 0
    classes: Tuple[Tuple[int, int], ...] = ()


def ref_key(g: int, r: int, d: int) -> str:
    return f"{g},{r},{min(d % r, -d % r)}"


def dim_moduli(g: int, r: int) -> int:
    return (g - 1) * r * r + 1


def load_references() -> dict:
    with open(REFERENCES) as f:
        return json.load(f)


def _palindrome_problems(what: str, seq: Sequence[int], length: int) -> List[str]:
    problems = []
    if len(seq) != length:
        problems.append(f"{what}: length {len(seq)}, expected {length}")
    if not seq or seq[0] != 1:
        problems.append(f"{what}: does not start with 1")
    if any(not isinstance(b, int) or b < 0 for b in seq):
        problems.append(f"{what}: negative or non-integer entry")
    if list(seq) != list(reversed(seq)):
        problems.append(f"{what}: not palindromic")
    return problems


def betti_problems(g: int, r: int, betti: Sequence[int]) -> List[str]:
    """b_0 = 1, non-negative, palindromic, length 2 dim + 1."""
    return _palindrome_problems(f"Betti g={g} r={r}", betti, 2 * dim_moduli(g, r) + 1)


def detfactor_problems(g: int, r: int, coeffs: Sequence[int]) -> List[str]:
    """The fixed-determinant factor drops the (1-y)^(2g) Jacobian factor."""
    return _palindrome_problems(
        f"detfactor g={g} r={r}", coeffs, 2 * dim_moduli(g, r) + 1 - 2 * g
    )


def _terms(records: Sequence[dict]) -> Dict[Tuple[int, int], Fraction]:
    return {(t["eu2"], t["ev2"]): Fraction(t["num"], t["den"]) for t in records}


def hdt_problems(payload: dict) -> List[str]:
    """HDT is self-dual and u<->v symmetric; IH = HDT * L^(dim/2)."""
    problems = []
    terms = _terms(payload["hdt"])
    if any(terms.get((-a, -b)) != c for (a, b), c in terms.items()):
        problems.append("HDT is not self-dual")
    if any(terms.get((b, a)) != c for (a, b), c in terms.items()):
        problems.append("HDT is not u<->v symmetric")
    dim = payload["dim"]
    sign = -1 if dim % 2 else 1
    shifted = {(a + dim, b + dim): sign * c for (a, b), c in terms.items()}
    if _terms(payload["ih_epoly"]) != shifted:
        problems.append("ih_epoly is not HDT * L^(dim/2)")
    return problems


def compact_hdt(records: Sequence[dict]) -> List[List[int]]:
    return [[t["eu2"], t["ev2"], t["num"], t["den"]] for t in records]


def strata_digest(report: dict) -> str:
    """SHA-256 of a report's degree-free content: part ranks, multiplicities,
    codimension, bound, maximality and verdict of every record."""
    rows = [
        [[[rd[0], m] for rd, m in rec["parts"]], rec["codim"], rec["bound"],
         rec["maximal"], rec["pass"]]
        for rec in report["strata"]
    ]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def parse_blocks(text: str, label: str) -> List[Tuple[Dict[str, int], List[int]]]:
    """Table output of betti/detfactor: 'genus=G rank=R ...' then 'label: a, b, ...'."""
    blocks = []
    for block in text.strip().split("\n\n"):
        head, body = block.split("\n")
        fields = {k: int(v) for k, v in (item.split("=") for item in head.split())}
        name, values = body.split(": ")
        if name != label:
            raise ValueError(f"expected {label!r} row, got {name!r}")
        blocks.append((fields, [int(x) for x in values.split(", ")]))
    return blocks


def _check_hdt(cmd: Command, out: str, refs: dict) -> List[str]:
    payload = json.loads(out)
    (r, d), g = cmd.classes[0], cmd.genus
    problems = []
    if (payload["genus"], payload["rank"], payload["degree"]) != (g, r, d):
        problems.append(f"class {payload['genus'], payload['rank'], payload['degree']}")
    if payload["dim"] != dim_moduli(g, r):
        problems.append(f"dim {payload['dim']}")
    ref = refs["hdt"][ref_key(g, r, d)]
    if payload["betti"] != ref["betti"]:
        problems.append(f"Betti numbers of {g, r, d} differ from the reference")
    if compact_hdt(payload["hdt"]) != ref["hdt"]:
        problems.append(f"HDT of {g, r, d} differs from the reference")
    return problems + betti_problems(g, r, payload["betti"]) + hdt_problems(payload)


def _check_rows(cmd: Command, out: str, refs: dict) -> List[str]:
    label = "Betti" if cmd.kind == "betti" else "factor"
    structure = betti_problems if cmd.kind == "betti" else detfactor_problems
    blocks = parse_blocks(out, label)
    g = cmd.genus
    got_classes = [(f["rank"], f["degree"]) for f, _ in blocks]
    if got_classes != list(cmd.classes) or any(f["genus"] != g for f, _ in blocks):
        return [f"classes {got_classes}, expected {list(cmd.classes)}"]
    problems = []
    for (r, d), (_, row) in zip(cmd.classes, blocks):
        if row != refs[cmd.kind][ref_key(g, r, d)]:
            problems.append(f"{label} row of {g, r, d} differs from the reference")
        problems += structure(g, r, row)
    return problems


def _check_strata(cmd: Command, out: str, refs: dict) -> List[str]:
    reports = json.loads(out)
    g = cmd.genus
    got_classes = [(rep["rank"], rep["degree"]) for rep in reports]
    if got_classes != list(cmd.classes) or any(rep["genus"] != g for rep in reports):
        return [f"classes {got_classes}, expected {list(cmd.classes)}"]
    problems = []
    for (r, d), rep in zip(cmd.classes, reports):
        where = f"strata {g, r, d}"
        ref = refs["strata"][ref_key(g, r, d)]
        records = rep["strata"]
        if rep["verdict"] != "PASS" or not all(rec["pass"] for rec in records):
            problems.append(f"{where}: verdict {rep['verdict']}")
        if rep["d0"] != d + (1 - g) * r - 1:
            problems.append(f"{where}: d0 {rep['d0']}")
        if len(records) != ref["types"] or strata_digest(rep) != ref["sha256"]:
            problems.append(f"{where}: stratum table differs from the reference")
        head = records[0] if records else {}
        if not (head.get("maximal") and head["codim"] == 0 and head["bound"] == "0"):
            problems.append(f"{where}: first record is not the maximal stratum")
        if sum(rec["maximal"] for rec in records) != 1:
            problems.append(f"{where}: not exactly one maximal stratum")
        if any(rd[1] * r != rd[0] * d for rec in records for rd, _ in rec["parts"]):
            problems.append(f"{where}: a part has another slope")
    return problems


def _check_verify(cmd: Command, out: str, refs: dict) -> List[str]:
    payload = json.loads(out)
    problems = []
    if payload["verdict"] != "PASS":
        problems.append(f"verify verdict {payload['verdict']}")
    failed = [c["name"] for c in payload["checks"] if c["status"] != "PASS"]
    if failed:
        problems.append(f"verify checks not PASS: {failed}")
    if out != refs["verify"]:
        problems.append("verify output differs from the reference")
    return problems


_CHECKERS = {
    "hdt": _check_hdt,
    "betti": _check_rows,
    "detfactor": _check_rows,
    "strata": _check_strata,
    "verify": _check_verify,
}


def check_output(cmd: Command, returncode: int, stdout: bytes, refs: dict) -> List[str]:
    """Everything wrong with one command's result; empty when it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        return _CHECKERS[cmd.kind](cmd, stdout.decode(), refs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
