#!/usr/bin/env python3
"""Record the reference outputs that checks.py compares against.

    python3 curvebench/make_refs.py

Run it from the root of a checkout of the commit whose outputs are the
reference.  It runs each canonical class of every workload once (about a
minute) and rewrites curvebench/references.json.  Classes are keyed by
(g, r, min(d mod r, -d mod r)); see checks.py for why that suffices.
"""

from __future__ import annotations

import json
import sys

from checks import compact_hdt, ref_key, strata_digest
from run import OUT, execute


def _cli(*argv: str) -> str:
    res = execute(["-m", "curvedt.cli", *argv])
    if res.returncode != 0:
        sys.exit(f"curvedt {' '.join(argv)} exited {res.returncode}")
    return res.stdout.decode()


def main() -> int:
    OUT.mkdir(exist_ok=True)
    refs = {"hdt": {}, "betti": {}, "detfactor": {}, "strata": {}}
    for g, r, d in ((3, 6, 1), (2, 7, 1), (2, 7, 2), (2, 7, 3)):
        payload = json.loads(_cli("hdt", "-g", str(g), "-r", str(r), "-d", str(d), "--format", "json"))
        refs["hdt"][ref_key(g, r, d)] = {"betti": payload["betti"], "hdt": compact_hdt(payload["hdt"])}
    for res in json.loads(_cli("betti", "-g", "2", "--slope", "0", "--rmax", "6", "--format", "json")):
        refs["betti"][ref_key(2, res["rank"], res["degree"])] = res["betti"]
    for res in json.loads(_cli("detfactor", "-g", "3", "--slope", "1/2", "--rmax", "6", "--format", "json")):
        refs["detfactor"][ref_key(3, res["rank"], res["degree"])] = res["detfactor"]
    refs["verify"] = _cli("verify", "--json")
    for g in (2, 3, 4):
        slope = 2 * g - 1
        reports = json.loads(_cli("strata", "-g", str(g), "--slope", str(slope), "--rmax", "20", "--format", "json"))
        for rep in reports:
            refs["strata"][ref_key(g, rep["rank"], rep["degree"])] = {
                "types": len(rep["strata"]),
                "sha256": strata_digest(rep),
            }
    with open(__file__.replace("make_refs.py", "references.json"), "w") as f:
        json.dump(refs, f, separators=(",", ":"), sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
