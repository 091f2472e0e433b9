#!/usr/bin/env python3
"""The curvedt benchmark.

    python3 curvebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a curvedt checkout; it needs ``src/curvedt``.

Each command of a workload runs as a fresh ``python -m curvedt.cli``
child, started by ``spawn.py``, one at a time, because that is how users
pay: every cache starts cold.  The command list repeats until the next repetition would end
after S seconds (at least once).  Every output is checked against the
references in ``references.json`` and for structural properties.

``--trace 0`` reports the end-to-end metrics: medians over repetitions
of the list's wall and child CPU seconds and of its largest child max
RSS, plus ``setup_s``, the median time of a fresh ``curvedt --help``.
Times are scaled to a fixed reference CPU speed by ``SpeedProbe``; the
measured seconds are printed beside them.  ``--trace 1`` alternates
untraced and traced repetitions; traced commands run under
``trace_child.py`` and give the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  Generated files go to ``curvebench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import threading
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from math import gcd
from pathlib import Path
from fractions import Fraction
from time import perf_counter, thread_time
from typing import Dict, List, Optional, Tuple

from checks import Command, check_output, load_references

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Set-up samples are spread over the run, so that they see the same host
# load as the workload does.
SETUP_PER_REPETITION = 3

# Metric names and units, in report order, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

MAX_COUNTERS = ("ring.mul.max_terms", "ring.mul.max_coeff_bits", "ring.den.max_factors")
CACHES = ("invariants.q_rank", "invariants.q_class")


# --------------------------------------------------------------- workloads


def _hdt_large(rng: random.Random) -> List[Command]:
    """Two coprime bivariate classes; d is a unit mod r, shifted by k*r, signed."""
    cmds = []
    for g, r in ((3, 6), (2, 7)):
        unit = rng.choice([u for u in range(1, r) if gcd(u, r) == 1])
        d = rng.choice((1, -1)) * (unit + rng.choice((1, -1)) * rng.randint(0, 4) * r)
        argv = ("hdt", "-g", str(g), "-r", str(r), f"--degree={d}", "--format", "json")
        cmds.append(Command(argv, "hdt", g, ((r, d),)))
    return cmds


def _betti_sweep(rng: random.Random) -> List[Command]:
    """Slope mode: Betti numbers at g=2 (integer slope), detfactor at g=3 (half-integer)."""
    p = rng.randint(-20, 20)
    num = 2 * rng.randint(-10, 10) + 1
    return [
        Command(("betti", "-g", "2", f"--slope={p}", "--rmax", "6"), "betti", 2,
                tuple((r, r * p) for r in range(1, 7))),
        Command(("detfactor", "-g", "3", f"--slope={num}/2", "--rmax", "6"), "detfactor", 3,
                tuple((r, r * num // 2) for r in (2, 4, 6))),
    ]


def _verify_suite(rng: random.Random) -> List[Command]:
    """The built-in suite; its seeds are internal, so the benchmark seed is unused."""
    return [Command(("verify", "--json"), "verify")]


def _strata_wide(rng: random.Random) -> List[Command]:
    """Every rank up to 20 along an integer slope p above 2G-2."""
    g = rng.choice((2, 3, 4))
    p = rng.randint(2 * g - 1, 2 * g + 10)
    argv = ("strata", "-g", str(g), f"--slope={p}", "--rmax", "20", "--format", "json")
    return [Command(argv, "strata", g, tuple((r, r * p) for r in range(1, 21)))]


WORKLOADS = {
    "hdt_large": _hdt_large,
    "betti_sweep": _betti_sweep,
    "verify_suite": _verify_suite,
    "strata_wide": _strata_wide,
}


def workload_commands(name: str, seed: int) -> List[Command]:
    """The commands of a workload; the same (name, seed) gives the same argv."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


# ------------------------------------------------------------ speed probe

PROBE_MARGIN_S = 0.5
PROBE_MIN_SAMPLES = 5
# Probe time that defines reference speed; reported seconds are seconds at it.
REF_PROBE_S = 0.0015


def _probe_work() -> int:
    """A fixed piece of the arithmetic curvedt spends its time on."""
    acc: Dict[Tuple[int, int], Fraction] = {}
    for i in range(300):
        key = (i % 31, i % 29)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)
    return len(acc)


class SpeedProbe:
    """Measures the speed of the one CPU the benchmark and its children share.

    On a shared host the speed a process gets drifts, here by up to 1.7x
    in phases that last seconds, and it differs between CPUs.  A thread
    runs ``_probe_work`` back to back on the same CPU as the child and
    records the thread CPU time of each piece.  Scaling a command's times
    by REF_PROBE_S / (mean probe time while it ran) reports them at a
    fixed reference speed.  The probe takes half of the CPU; its CPU time
    is subtracted from the child's wall time.  For one ``hdt`` command run
    six to eight times, the coefficient of variation was 7% unscaled, 2%
    with a probe every 40 ms, 1.5% with one every 5 ms and 0.6% with the
    probe running all the time.
    """

    def __init__(self):
        self.times: List[float] = []  # perf_counter() at the end of each sample
        self.costs: List[float] = []  # its thread CPU seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        while len(self.times) < PROBE_MIN_SAMPLES and self._thread.is_alive():
            self._stop.wait(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.is_set():
            start = thread_time()
            _probe_work()
            self.costs.append(thread_time() - start)
            self.times.append(perf_counter())  # after costs: readers index by times

    def factor(self, start: float, end: float) -> float:
        """REF_PROBE_S over the mean probe cost from PROBE_MARGIN_S before
        ``start`` to ``end``, and over at least PROBE_MIN_SAMPLES samples."""
        hi = bisect_right(self.times, end)
        lo = max(0, min(bisect_left(self.times, start - PROBE_MARGIN_S), hi - PROBE_MIN_SAMPLES))
        if hi == lo:
            raise RuntimeError("the speed probe took no samples")
        return REF_PROBE_S * (hi - lo) / sum(self.costs[lo:hi])

    def busy(self, start: float, end: float) -> float:
        """CPU seconds of the samples that ended in (start, end]."""
        return sum(self.costs[bisect_right(self.times, start):bisect_right(self.times, end)])


# --------------------------------------------------------------- execution


@dataclass
class Outcome:
    returncode: int
    stdout: bytes
    start: float  # perf_counter() at spawn
    end: float  # perf_counter() once reaped
    cpu_s: float
    maxrss_mb: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def execute(argv: List[str]) -> Outcome:
    """Run one child with src/ on its path, through ``spawn.py``, which
    times it and reads its rusage.

    Output goes to a file, not a pipe, so the child never waits for this
    process to read.  Children may write the bytecode cache, whatever the
    caller's environment says, so that only the first run compiles."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    report = OUT / "spawn.json"
    with open(OUT / "stdout.bin", "w+b") as out, open(OUT / "stderr.log", "w+b") as err:
        subprocess.run(
            [sys.executable, "-I", "-S", str(BENCH / "spawn.py"), str(report), sys.executable, *argv],
            cwd=ROOT, env=env, stdout=out, stderr=err, check=True,
        )
        out.seek(0)
        stdout = out.read()
        doc = json.loads(report.read_text())
        if doc["returncode"] != 0:
            err.seek(0)
            sys.stderr.write(err.read()[-2000:].decode(errors="replace"))
    return Outcome(doc["returncode"], stdout, doc["start"], doc["end"], doc["cpu_s"],
                   doc["maxrss_mb"])


def span_metrics(doc: dict) -> Dict[str, float]:
    """Inclusive seconds and calls per span name, self seconds per span name
    and per layer, and the counters, for one traced command."""
    spans = doc["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for (name, start, end, _), child in zip(spans, covered):
        own = end - start - child
        out[f"{name}.s"] += end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        out[f"{name.split('.')[0]}.self_s"] += own
    out.update(doc["counters"])
    return out


@dataclass
class Repetition:
    """One pass over a workload's command list.  Times are summed over its
    commands, at reference speed; ``raw_wall_s`` is as measured."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    raw_wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    layers: Dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def add(self, res: Outcome, probe: SpeedProbe) -> float:
        """Count one command; returns the factor that scales its times."""
        scale = probe.factor(res.start, res.end)
        self.wall_s += (res.wall_s - probe.busy(res.start, res.end)) * scale
        self.cpu_s += res.cpu_s * scale
        self.raw_wall_s += res.wall_s
        self.peak_rss_mb = max(self.peak_rss_mb, res.maxrss_mb)
        self.attempted += 1
        return scale


def run_list(cmds: List[Command], refs: dict, traced: bool, probe: SpeedProbe) -> Repetition:
    rep = Repetition()
    for i, cmd in enumerate(cmds):
        spans_path = OUT / f"spans-{i}.json"
        if traced:
            spans_path.unlink(missing_ok=True)
            argv = [str(BENCH / "trace_child.py"), str(spans_path), *cmd.argv]
        else:
            argv = ["-m", "curvedt.cli", *cmd.argv]
        res = execute(argv)
        scale = rep.add(res, probe)
        problems = check_output(cmd, res.returncode, res.stdout, refs)
        if traced and not problems:
            problems = _add_layers(rep.layers, spans_path, len(res.stdout), scale)
        if problems:
            rep.failed += 1
            print(f"FAILED {' '.join(cmd.argv)}: {'; '.join(problems[:5])}", file=sys.stderr)
    return rep


def _add_layers(
    layers: Dict[str, float], spans_path: Path, stdout_bytes: int, scale: float
) -> List[str]:
    """Add one traced command's metrics, its times scaled to reference speed."""
    try:
        with open(spans_path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        return [f"no trace: {exc}"]
    if Path(doc["curvedt"]).resolve().parent != ROOT / "src" / "curvedt":
        return [f"traced run imported curvedt from {doc['curvedt']}"]
    for key, value in span_metrics(doc).items():
        if key.endswith((".s", ".self_s")):
            value *= scale
        if key in MAX_COUNTERS:
            layers[key] = max(layers[key], value)
        else:
            layers[key] += value
    layers["cli.stdout_bytes"] += stdout_bytes
    return []


def layer_report(layers: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition, zero where unused."""
    values = {}
    for cache in CACHES:
        hits, misses = layers.get(f"{cache}.hits", 0), layers.get(f"{cache}.misses", 0)
        values[f"{cache}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for name in PER_LAYER:
        values.setdefault(name, layers.get(name, 0.0))
    return values


def measure_setup(probe: SpeedProbe) -> List[Repetition]:
    """A fresh interpreter importing curvedt and building the parser."""
    samples = []
    for _ in range(SETUP_PER_REPETITION):
        res = execute(["-m", "curvedt.cli", "--help"])
        sample = Repetition()
        sample.add(res, probe)
        sample.failed = res.returncode != 0 or not res.stdout.startswith(b"usage: curvedt")
        samples.append(sample)
    return samples


def _series(label: str, values: List[float]) -> str:
    return f"  {label}: " + ", ".join(f"{v:.4f}" for v in values)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    refs = load_references()
    cmds = workload_commands(workload, seed)
    warm = execute(["-m", "curvedt.cli", "--help"])  # writes the bytecode cache
    setup: List[Repetition] = []
    plain: List[Repetition] = []
    traced: List[Repetition] = []
    with SpeedProbe() as probe:
        deadline = perf_counter() + seconds
        last = 0.0
        while not plain or perf_counter() + last <= deadline:
            begin = perf_counter()
            if not trace:
                setup += measure_setup(probe)
            plain.append(run_list(cmds, refs, False, probe))
            if trace:
                traced.append(run_list(cmds, refs, True, probe))
            last = perf_counter() - begin
    everything = setup + plain + traced
    attempted = 1 + sum(rep.attempted for rep in everything)
    failed = (warm.returncode != 0) + sum(rep.failed for rep in everything)

    med = statistics.median
    print(f"workload {workload} seed {seed}: {len(plain)} repetitions of "
          f"{len(cmds)} commands" + (" (+ as many traced)" if trace else ""))
    for cmd in cmds:
        print("  curvedt " + " ".join(cmd.argv))
    print(_series("wall_s per repetition", [rep.wall_s for rep in plain]))
    print(_series("measured wall seconds", [rep.raw_wall_s for rep in plain]))
    if trace:
        print(_series("traced wall_s", [rep.wall_s for rep in traced]))
        rows = [layer_report(rep.layers) for rep in traced]
        metrics = {name: med([row[name] for row in rows]) for name in PER_LAYER}
        metrics["trace.overhead_ratio"] = (
            med([rep.wall_s for rep in traced]) / med([rep.wall_s for rep in plain]) - 1
        )
        units = PER_LAYER
    else:
        print(_series("setup_s samples", [rep.wall_s for rep in setup]))
        print(_series("measured setup seconds", [rep.raw_wall_s for rep in setup]))
        metrics = {
            "wall_s": med([rep.wall_s for rep in plain]),
            "cpu_s": med([rep.cpu_s for rep in plain]),
            "peak_rss_mb": med([rep.peak_rss_mb for rep in plain]),
            "setup_s": med([rep.wall_s for rep in setup]),
        }
        units = END_TO_END
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}")
    print(f"  {'fail_ratio':40s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "curvedt" / "cli.py").is_file():
        print(f"error: no curvedt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # The children inherit this CPU, so the speed probe measures the CPU they run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # The probe thread holds the GIL; hand it back soon after a child exits.
    sys.setswitchinterval(0.0005)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
