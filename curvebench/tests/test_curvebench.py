"""Tests of the benchmark itself: inputs, output checks and tracing.

    python3 -m pytest curvebench/tests -q

Run from the repository root.  About 75 seconds: a few real curvedt
commands run to get genuine outputs to corrupt and to trace, and the
probe calibration runs stand-in children for about 50 seconds.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from checks import check_output, load_references, ref_key  # noqa: E402

LAYERS = ("ring", "series", "invariants", "closedforms", "strata", "verify", "cli")
SEEDED = ("hdt_large", "betti_sweep", "strata_wide")


@pytest.fixture(scope="module")
def refs():
    return load_references()


@pytest.fixture(scope="module", autouse=True)
def out_dir():
    run.OUT.mkdir(exist_ok=True)


def _argvs(name, seed):
    return [cmd.argv for cmd in run.workload_commands(name, seed)]


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_same_seed_gives_same_argv(name):
    assert _argvs(name, 11) == _argvs(name, 11)


@pytest.mark.parametrize("name", SEEDED)
def test_different_seeds_give_different_argv(name):
    assert _argvs(name, 1) != _argvs(name, 2)
    assert len({tuple(_argvs(name, seed)) for seed in range(20)}) >= 10


def test_verify_suite_ignores_the_seed():
    assert _argvs("verify_suite", 1) == _argvs("verify_suite", 2)


@pytest.mark.parametrize("name", SEEDED)
def test_every_seed_has_references(name, refs):
    for seed in range(300):
        for cmd in run.workload_commands(name, seed):
            for r, d in cmd.classes:
                assert ref_key(cmd.genus, r, d) in refs[cmd.kind]


def _bump_digit(text: str, pattern: str) -> str:
    """Change one digit: the last digit of the first match of ``pattern``."""
    match = re.search(pattern, text)
    i = match.end() - 1
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


@pytest.fixture(scope="module")
def real_outputs():
    """(command, stdout) of one betti row command and one HDT command."""
    betti = run.workload_commands("betti_sweep", 3)[0]
    hdt = next(c for c in run.workload_commands("hdt_large", 3) if c.genus == 2)
    return [(cmd, run.execute(["-m", "curvedt.cli", *cmd.argv]).stdout) for cmd in (betti, hdt)]


class SteadyProbe:
    def factor(self, start, end):
        return 1.0

    def busy(self, start, end):
        return 0.0


def _fails(monkeypatch, refs, cmd, stdout: bytes) -> int:
    monkeypatch.setattr(run, "execute", lambda argv: run.Outcome(0, stdout, 0.0, 1.0, 1.0, 10.0))
    rep = run.run_list([cmd], refs, False, SteadyProbe())
    assert rep.attempted == 1
    return rep.failed


def test_real_outputs_pass(monkeypatch, refs, real_outputs):
    for cmd, out in real_outputs:
        assert check_output(cmd, 0, out, refs) == []
        assert _fails(monkeypatch, refs, cmd, out) == 0


@pytest.mark.parametrize(
    "kind, pattern",
    [
        ("betti", r"Betti: 1, 4, 7, 12, \d+"),  # one Betti number of rank >= 3
        ("hdt", r'"num": -?\d+'),  # one HDT coefficient
        ("hdt", r'"betti": \[\s*1,\s*\d+'),  # b_1 in the JSON Betti row
    ],
)
def test_one_digit_corruption_is_a_failure(monkeypatch, refs, real_outputs, kind, pattern):
    cmd, out = next((c, o) for c, o in real_outputs if c.kind == kind)
    bad = _bump_digit(out.decode(), pattern).encode()
    assert bad != out
    assert check_output(cmd, 0, bad, refs)
    assert _fails(monkeypatch, refs, cmd, bad) == 1


def test_nonzero_exit_is_a_failure(refs, real_outputs):
    cmd, out = real_outputs[0]
    assert check_output(cmd, 1, out, refs) == ["exit code 1"]


def test_span_self_times():
    doc = {
        "spans": [
            ["cli.main", 0.0, 10.0, -1],
            ["invariants.hdt", 1.0, 9.0, 0],
            ["ring.mul", 2.0, 5.0, 1],
            ["ring.mul", 6.0, 7.0, 1],
        ],
        "counters": {"ring.mul.coeff_pairs": 12},
    }
    m = run.span_metrics(doc)
    assert (m["ring.mul.calls"], m["ring.mul.s"], m["ring.self_s"]) == (2, 4.0, 4.0)
    assert (m["invariants.hdt.self_s"], m["invariants.self_s"]) == (4.0, 4.0)
    assert m["cli.self_s"] == 2.0
    assert m["ring.mul.coeff_pairs"] == 12


def test_speed_probe_scales_to_reference_speed():
    probe = run.SpeedProbe()
    probe.times = [float(i) for i in range(1, 101)]  # one sample a second
    probe.costs = [run.REF_PROBE_S] * 50 + [2 * run.REF_PROBE_S] * 50
    assert probe.factor(10.0, 40.0) == pytest.approx(1.0)
    assert probe.factor(60.0, 90.0) == pytest.approx(0.5)  # twice as slow
    # a short command averages the PROBE_MIN_SAMPLES samples up to its end:
    # three fast ones and two slow ones
    assert probe.factor(52.2, 52.2) == pytest.approx(5 / 7)
    assert probe.busy(49.5, 52.0) == pytest.approx(5 * run.REF_PROBE_S)  # 50, 51, 52


# Stand-in children for calibrating the probe: (code, units of work), the
# units given as argv[1].  "compute" stays within a few MB.  Each unit of
# "memory" builds about 250 MB of objects, walks them and frees them, so
# it evicts the probe's cache lines all the time.
STAND_INS = {
    "compute": ("""
import sys
x = 1
for _ in range(int(sys.argv[1]) * 200_000):
    x = (x * 48271) % 2147483647
""", 10),
    "memory": ("""
import sys
for _ in range(int(sys.argv[1])):
    objs = [(i, str(i)) for i in range(1_500_000)]
    total = sum(len(s) for _, s in objs)
    del objs
""", 2),
}
ROUNDS = 5
WALL_BOUND = next(m["bound"] for m in run.SPEC["end_to_end"] if m["name"] == "wall_s")


@pytest.fixture(scope="module")
def calibration():
    """Scaled wall seconds of the stand-ins at 0, 1 and 2 times their
    units of work.  The kinds take turns, under a live probe on one pinned
    CPU, as in run.main."""
    cpus, interval = os.sched_getaffinity(0), sys.getswitchinterval()
    os.sched_setaffinity(0, {min(cpus)})
    sys.setswitchinterval(0.0005)
    walls = defaultdict(list)
    try:
        with run.SpeedProbe() as probe:
            for _ in range(ROUNDS):
                for times in (0, 1, 2):
                    for kind, (code, units) in STAND_INS.items():
                        res = run.execute(["-c", code, str(times * units)])
                        assert res.returncode == 0
                        rep = run.Repetition()
                        rep.add(res, probe)
                        walls[kind, times].append(rep.wall_s)
    finally:
        os.sched_setaffinity(0, cpus)
        sys.setswitchinterval(interval)
    return walls


@pytest.mark.parametrize("kind", STAND_INS)
def test_scaled_wall_follows_work(calibration, kind):
    """Twice the work reads as twice the scaled wall_s, within its bound,
    once the run with no work (interpreter start-up) is taken off."""
    base, once, twice = (statistics.median(calibration[kind, times]) for times in (0, 1, 2))
    ratio = (twice - base) / (once - base)
    print(f"{kind}: scaled wall_s ratio {ratio:.3f}")
    assert abs(ratio / 2 - 1) <= WALL_BOUND


def test_child_rss_does_not_include_the_benchmarks():
    ballast = bytearray(300 << 20)  # 300 MB of touched pages in this process
    assert run.execute(["-c", "pass"]).maxrss_mb < 100
    del ballast


def test_speed_probe_samples_while_running():
    with run.SpeedProbe() as probe:
        assert len(probe.times) >= run.PROBE_MIN_SAMPLES
    assert len(probe.times) == len(probe.costs)
    assert probe.factor(probe.times[0], probe.times[-1]) > 0


TRACED_ARGV = ("hdt", "-g", "2", "-r", "4", "-d", "2", "--format", "json")


def _traced_run(tmp_path, tag):
    spans = tmp_path / f"spans-{tag}.json"
    res = run.execute([str(run.BENCH / "trace_child.py"), str(spans), *TRACED_ARGV])
    assert res.returncode == 0
    with open(spans) as f:
        return res, json.load(f)


@pytest.fixture(scope="module")
def traced_pair(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    return [_traced_run(tmp, tag) for tag in ("a", "b")]


def test_traced_stdout_matches_untraced(traced_pair):
    plain = run.execute(["-m", "curvedt.cli", *TRACED_ARGV])
    assert all(res.stdout == plain.stdout for res, _ in traced_pair)


def test_self_times_sum_to_at_most_traced_wall(traced_pair):
    for res, doc in traced_pair:
        m = run.span_metrics(doc)
        total_self = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        assert total_self == pytest.approx(m["cli.main.s"])
        assert total_self <= res.wall_s
        assert m["ring.self_s"] > 0 and m["series.self_s"] > 0


def test_counts_repeat_exactly(traced_pair):
    (_, a), (_, b) = traced_pair
    ma, mb = run.span_metrics(a), run.span_metrics(b)
    assert ma["ring.mul.coeff_pairs"] > 0
    for key in ma:
        if key.endswith(".calls") or key in a["counters"]:
            assert ma[key] == mb[key], key


def test_layer_report_names_every_metric(traced_pair):
    report = run.layer_report(run.span_metrics(traced_pair[0][1]))
    assert set(report) == set(run.PER_LAYER)
    assert 0 < report["invariants.q_rank.hit_ratio"] <= 1


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in run.SPEC["workloads"]] == list(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "hdt_large", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""

