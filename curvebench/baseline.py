#!/usr/bin/env python3
"""Run every workload several times and record the figures.

    python3 curvebench/baseline.py --out curvebench/results/NAME.json

Run it from the root of a checkout.  Each workload in BENCHMARK.json runs
RUNS times untraced, with seeds 1..RUNS, then TRACED times traced with
seed 1, to show that the counts repeat exactly.  Each run is a separate
``run.py`` process, as in any other use of the benchmark.  For every
end-to-end metric, the output holds the values, the median, the
quartiles and the spread: the distance between the quartiles as a share
of the median.  It also holds the per-layer
metrics of each traced run.  A summary goes to stdout.  This takes about
(RUNS + TRACED) x 4 x (run_seconds + 3) seconds.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
TRACED = 2
EXACT = (".calls", ".coeff_pairs", "strata.types", ".max_terms", ".max_coeff_bits", ".max_factors")


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {
        "python": platform.python_version(),
        "run_seconds": spec["run_seconds"],
        "workloads": {},
    }
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        plain = [_run(name, seed, spec["run_seconds"], 0) for seed in range(1, RUNS + 1)]
        traced = [_run(name, 1, spec["run_seconds"], 1) for _ in range(TRACED)]
        entry = {
            "correct": all(r["correct"] for r in plain + traced),
            "attempted": sum(r["attempted"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
            "end_to_end": {
                m: _spread([r["metrics"][m]["value"] for r in plain]) for m in plain[0]["metrics"]
            },
            "per_layer": [{k: v["value"] for k, v in r["metrics"].items()} for r in traced],
        }
        report["workloads"][name] = entry
        ok &= entry["correct"]
        print(f"{name}: correct={entry['correct']} failed={entry['failed']}/{entry['attempted']}")
        for metric, s in entry["end_to_end"].items():
            flag = "" if metric == "setup_s" or s["spread"] <= bounds[metric] / 3 else "  (above a third of the bound)"
            print(f"  {metric:12s} median {s['median']:10.4f}  spread {s['spread']:.4f}  bound {bounds[metric]}{flag}")
        exact = {k for k in traced[0]["metrics"] if k.endswith(EXACT)}
        same = all(r["metrics"][k] == traced[0]["metrics"][k] for r in traced for k in exact)
        entry["counts_repeat"] = same
        ok &= same
        print(f"  counts identical in {len(traced)} traced runs: {same}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
