"""Command-line surface: formats, flags, exit codes, JSON round trips."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from curvedt import cli, invariants, ring
from curvedt.cli import main, render_poly
from curvedt.invariants import VerificationError
from curvedt.ring import LaurentPoly, NotDivisibleError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_half_table(capsys):
    code, out, _ = run(capsys, "betti", "-g", "2", "-r", "2", "-d", "1", "--half")
    assert code == 0
    assert "1, 4, 7, 12, 24, 32" in out
    assert "genus=2 rank=2 degree=1 dim=5" in out


def test_betti_full_is_default(capsys):
    code, out, _ = run(capsys, "betti", "-g", "2", "-r", "1", "-d", "0")
    assert code == 0
    assert "1, 4, 6, 4, 1" in out


def test_betti_json_round_trip(capsys):
    code, out, _ = run(capsys, "betti", "-g", "2", "-r", "2", "-d", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert out == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert obj["betti"] == [1, 4, 7, 12, 24, 32, 24, 12, 7, 4, 1]
    assert obj["dim"] == 5 and obj["genus"] == 2
    assert {"eu2", "ev2", "num", "den"} == set(obj["hdt"][0])


def test_betti_csv(capsys):
    code, out, _ = run(capsys, "betti", "-g", "2", "-r", "1", "-d", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,b_k" and lines[1] == "0,1" and lines[-1] == "4,1"


def test_slope_mode_lists_all_ranks(capsys):
    code, out, _ = run(
        capsys, "betti", "-g", "2", "--slope", "1/2", "--rmax", "4", "--half"
    )
    assert code == 0
    assert "rank=2 degree=1" in out and "rank=4 degree=2" in out
    assert "rank=1" not in out and "rank=3" not in out


def test_slope_mode_json_is_list(capsys):
    code, out, _ = run(
        capsys, "detfactor", "-g", "2", "--slope", "0", "--rmax", "2", "--format", "json"
    )
    assert code == 0
    objs = json.loads(out)
    assert [o["rank"] for o in objs] == [1, 2]
    assert objs[1]["detfactor"] == [1, 0, 1, 0, 1, 0, 1]


def test_hdt_torsion_values(capsys):
    code, out, _ = run(capsys, "hdt", "-g", "2", "-r", "0", "-d", "1")
    assert code == 0 and "(torsion)" in out
    assert "u^(-1/2)v^(-1/2)" in out
    code, out, _ = run(capsys, "hdt", "-g", "2", "-r", "0", "-d", "2")
    assert code == 0 and "HDT = 0" in out


def test_hdt_elliptic_with_force_genus(capsys):
    code, out, _ = run(capsys, "hdt", "-g", "1", "-r", "2", "-d", "1", "--force-genus")
    assert code == 0
    assert (
        "-u^(-1/2)v^(-1/2) + u^(-1/2)v^(1/2) + u^(1/2)v^(-1/2) - u^(1/2)v^(1/2)"
        in out
    )


def test_detfactor_half(capsys):
    code, out, _ = run(capsys, "detfactor", "-g", "3", "-r", "2", "-d", "1", "--half")
    assert code == 0
    assert "1, 0, 1, 6, 2, 6, 16" in out


@pytest.mark.parametrize("command", ["betti", "detfactor"])
def test_half_leaves_json_whole(capsys, command):
    # --half shortens the table and CSV only; JSON always carries the whole sequence
    argv = [command, "-g", "2", "-r", "2", "-d", "1", "--format", "json"]
    whole = run(capsys, *argv)
    assert whole[0] == 0
    assert run(capsys, *argv, "--half") == whole


def test_strata_table_and_exit(capsys):
    code, out, _ = run(capsys, "strata", "-g", "2", "-r", "2", "-d", "6")
    assert code == 0
    assert "verdict: PASS" in out
    assert out.count("\n1*") + out.count("\n2*") == 3  # three stratum rows


def test_strata_out_of_range_warning_on_stderr(capsys):
    code, out, err = run(capsys, "strata", "-g", "2", "-r", "2", "-d", "1")
    assert code == 0
    assert "in-theorem-range=no" in out
    assert "warning" in err and "slope" in err


def test_strata_warning_prints_reduced_slope(capsys):
    code, _, err = run(capsys, "strata", "-g", "2", "-r", "4", "-d", "-6")
    assert code == 0 and "warning: slope -3/2 is not above 2:" in err
    code, _, err = run(capsys, "strata", "-g", "2", "--slope=0", "--rmax", "2")
    assert code == 0 and err.count("warning: slope 0 is not above 2:") == 2


def test_strata_slope_mode_warnings_are_pinned(capsys):
    # one out-of-range warning per rank, in rank order, and stdout untouched by them
    code, out, err = run(capsys, "strata", "-g", "2", "--slope=1", "--rmax", "4")
    line = (
        "warning: slope 1 is not above 2: smallness is certified arithmetic only, "
        "outside the theorem's hypothesis\n"
    )
    assert code == 0 and err == 4 * line
    assert [ln for ln in out.splitlines() if ln.startswith("genus=")] == [
        f"genus=2 rank={r} degree={r} d0=-1 in-theorem-range=no" for r in range(1, 5)
    ]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_strata_slope_warnings_come_before_any_stdout(fmt):
    # one slope, one range: every class's warning is out before the first class is written
    line = (
        "warning: slope 1 is not above 2: smallness is certified arithmetic only, "
        "outside the theorem's hypothesis\n"
    )
    merged = io.StringIO()
    with contextlib.redirect_stdout(merged), contextlib.redirect_stderr(merged):
        code = main(["strata", "-g", "2", "--slope=1", "--rmax", "4", "--format", fmt])
    text = merged.getvalue()
    assert code == 0 and text.startswith(4 * line) and text.count("warning:") == 4


# command -> (a slope, its number of classes, its first class alone)
SLOPE_RUNS = {
    "betti": ("-g 2 --slope=1/2 --rmax 6", 3, "-g 2 -r 2 -d 1"),
    "hdt": ("-g 2 --slope=1/2 --rmax 6", 3, "-g 2 -r 2 -d 1"),
    "detfactor": ("-g 3 --slope=5/2 --rmax 6", 3, "-g 3 -r 2 -d 5"),
    "strata": ("-g 2 --slope=5 --rmax 4", 4, "-g 2 -r 1 -d 5"),
}
STREAMED = [(command, fmt) for command in ("betti", "hdt", "detfactor")
            for fmt in ("table", "csv", "json")]


def per_class_computation(command, fmt):
    """(module, name) of the library function a command calls once per class."""
    if command == "strata":
        import curvedt.strata as strata
        return strata, "stratum_rows"
    if command == "hdt" or (command, fmt) == ("betti", "json"):  # JSON of the whole DTResult
        return cli, "ih_poincare"
    return cli, "betti_numbers"


def assert_each_class_is_written_before_the_next_is_computed(monkeypatch, command, fmt):
    module, name = per_class_computation(command, fmt)
    out, seen, compute = io.StringIO(), [], getattr(module, name)

    def recording(*args, **kwargs):
        seen.append(out.tell())
        return compute(*args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    slope, classes, _ = SLOPE_RUNS[command]
    with contextlib.redirect_stdout(out):
        code = main([command, *slope.split(), "--format", fmt])
    assert code == 0 and len(seen) == classes
    assert all(before < after for before, after in zip(seen, seen[1:])), seen


def assert_a_fault_mid_slope_leaves_the_first_class_written(capsys, monkeypatch, command, fmt):
    slope, _, first_class = SLOPE_RUNS[command]
    _, single, _ = run(capsys, command, *first_class.split(), "--format", fmt)
    # the first class alone, as slope mode writes it: for JSON, the list head and its payload
    first = "[\n  " + single[:-1].replace("\n", "\n  ") if fmt == "json" else single[:-1]
    module, name = per_class_computation(command, fmt)
    calls, compute = [], getattr(module, name)

    def failing_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise VerificationError("injected fault")
        return compute(*args, **kwargs)

    monkeypatch.setattr(module, name, failing_second)
    code, out, err = run(capsys, command, *slope.split(), "--format", fmt)
    assert (code, err) == (1, "error: injected fault\n")
    assert out == first and len(calls) == 2


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_strata_slope_mode_writes_each_class_before_certifying_the_next(monkeypatch, fmt):
    assert_each_class_is_written_before_the_next_is_computed(monkeypatch, "strata", fmt)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_strata_fault_mid_slope_leaves_the_first_class_written(capsys, monkeypatch, fmt):
    assert_a_fault_mid_slope_leaves_the_first_class_written(capsys, monkeypatch, "strata", fmt)


@pytest.mark.parametrize("command, fmt", STREAMED)
def test_slope_mode_writes_each_class_before_computing_the_next(monkeypatch, command, fmt):
    # no command computes every class first: class k+1 starts after class k is on stdout
    assert_each_class_is_written_before_the_next_is_computed(monkeypatch, command, fmt)


@pytest.mark.parametrize("command, fmt", STREAMED)
def test_a_fault_mid_slope_leaves_the_first_class_written(capsys, monkeypatch, command, fmt):
    assert_a_fault_mid_slope_leaves_the_first_class_written(capsys, monkeypatch, command, fmt)


def test_strata_json(capsys):
    code, out, _ = run(
        capsys, "strata", "-g", "2", "-r", "2", "-d", "5", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert out == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert obj["verdict"] == "PASS" and obj["d0"] == 2
    assert obj["strata"][0]["parts"] == [[[2, 5], 1]]
    assert list(obj) == ["d0", "degree", "generic", "genus", "in_theorem_range", "rank",
                         "strata", "verdict"]
    assert (obj["generic"], obj["in_theorem_range"]) == (False, True)


def test_strata_json_states_the_range_and_the_bound(capsys):
    # a PASS outside d/r > 2g-2 says so in the JSON itself, not on stderr only
    code, out, err = run(capsys, "strata", "-g", "3", "-r", "4", "-d", "2", "--format", "json")
    obj = json.loads(out)
    assert (code, obj["verdict"], obj["in_theorem_range"], obj["generic"]) == (0, "PASS", False, False)
    assert err.startswith("warning: slope 1/2 is not above 4:")
    code, out, _ = run(capsys, "strata", "-g", "2", "--slope=5/2", "--rmax", "4", "--generic-bound",
                       "--format", "json")
    assert code == 0
    assert [(o["rank"], o["generic"], o["in_theorem_range"]) for o in json.loads(out)] == [
        (2, True, True), (4, True, True)]


def test_strata_generic_bound_flag(capsys):
    code, out, _ = run(
        capsys, "strata", "-g", "2", "-r", "2", "-d", "6", "--generic-bound"
    )
    assert code == 0
    assert "(generic bound)" in out and "verdict: PASS" in out


def test_strata_failed_bounds_exit_one(capsys, monkeypatch):
    import curvedt.strata as strata

    monkeypatch.setattr(strata, "_half", lambda twice: Fraction(1, 2))  # every bound fails
    code, out, _ = run(capsys, "strata", "-g", "2", "-r", "2", "-d", "6")
    assert code == 1 and out.endswith("verdict: FAIL\n")


def faulty_walk(monkeypatch, after):
    """strata._walk with the type after the first `after` carrying a codimension
    drop 1000 too large, so the certificate raises there."""
    import curvedt.strata as strata

    walk = strata._walk

    def faulty(*args):
        for i, (s, rank, drop, twice, nonpositive) in enumerate(walk(*args)):
            yield s, rank, drop + 1000 * (i == after), twice, nonpositive

    monkeypatch.setattr(strata, "_walk", faulty)


@pytest.mark.parametrize("fmt, r, after", [
    *(pytest.param(fmt, 6, 5, id=fmt) for fmt in ("table", "csv", "json")),
    # 603 types and 318 KB of JSON: the fault comes many 8 KB blocks into the class
    *(pytest.param(fmt, 12, 300, id=f"{fmt}-after-300") for fmt in ("csv", "json")),
])
def test_strata_fault_mid_class_leaves_its_rows_so_far(capsys, monkeypatch, fmt, r, after):
    # JSON and CSV write each row as it is certified; a table needs every row first
    from curvedt.strata import certify_virtual_smallness

    argv = ("strata", "-g", "2", "-r", str(r), "-d", str(3 * r), "--format", fmt)
    code, full, _ = run(capsys, *argv)
    assert code == 0
    faulty_walk(monkeypatch, after)
    with pytest.raises(VerificationError) as exc:
        certify_virtual_smallness(2, r, 3 * r)
    assert str(exc.value).startswith(f"class (g, r, d) = (2, {r}, {3 * r}): negative codimension")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, f"error: {exc.value}\n")
    if fmt == "json":  # the head and the records before the fault, each ending in "\n    }"
        end = -1
        for _ in range(after):
            end = full.index("\n    }", end + 1)
        assert out == full[: end + 6]
    else:  # the CSV header and the rows before the fault; no table
        assert out == ("\n".join(full.splitlines()[: after + 1]) if fmt == "csv" else "")


class NullText(io.TextIOBase):
    """A text sink that keeps nothing."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_strata_streams_a_class_in_little_memory(fmt):
    # 14,750 records: held whole, they and their text take 5 MB (JSON) and 12 MB (CSV)
    import tracemalloc

    argv = ["strata", "-g", "2", "-r", "20", "-d", "60", "--format", fmt]
    with contextlib.redirect_stdout(NullText()):
        assert main(["strata", "-g", "2", "-r", "4", "-d", "12", "--format", fmt]) == 0  # imports
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 1.5e6, peak


def subcommand_usage(capsys, command):
    """The usage line(s) that open ``curvedt COMMAND -h``, and the help itself."""
    with pytest.raises(SystemExit):
        main([command, "-h"])
    out = capsys.readouterr().out
    return out[: out.index("\n\n") + 1], out


@pytest.mark.parametrize("command", ["betti", "hdt", "detfactor", "strata"])
def test_checks_option_is_gone(capsys, command):
    # every consistency check always runs: no option turns one into a warning or off
    usage, help_text = subcommand_usage(capsys, command)
    assert "--checks" not in help_text
    with pytest.raises(SystemExit) as exc:
        main([command, "-g", "2", "-r", "2", "-d", "1", "--checks", "on"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"{usage}curvedt {command}: error: unrecognized arguments: --checks on\n")


UNKNOWN_OPTIONS = [
    ("betti -g 2 -r 2 -d 1", "--bogus"),
    ("hdt -g 2 -r 2 -d 1", "--bogus"),
    ("detfactor -g 2 -r 2 -d 1", "--bogus"),
    ("strata -g 2 -r 2 -d 5", "--bogus"),
    ("verify --quick", "--bogus"),
    # --half is a plain switch: the whole palindrome is the default, with no option of its own
    ("betti -g 2 -r 2 -d 1", "--full"),
    ("detfactor -g 2 -r 2 -d 1", "--full"),
]


@pytest.mark.parametrize("argv, option", UNKNOWN_OPTIONS, ids=[
    argv if option == "--bogus" else f"{argv} {option}" for argv, option in UNKNOWN_OPTIONS])
def test_unknown_option_is_reported_by_the_subcommand(capsys, argv, option):
    # under the subcommand's own usage line, like every other usage error of the subcommand
    command = argv.split()[0]
    usage, help_text = subcommand_usage(capsys, command)
    assert option not in help_text
    assert ("--half" in help_text) == (command in ("betti", "detfactor"))
    with pytest.raises(SystemExit) as exc:
        main([*argv.split(), option])
    assert exc.value.code == 2
    assert usage.startswith(f"usage: curvedt {command} [-h]")
    assert capsys.readouterr().err == (
        f"{usage}curvedt {command}: error: unrecognized arguments: {option}\n")


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--quick")
    assert code == 0
    assert "verdict: PASS" in out
    assert "betti-tables" in out and "strata-certificates" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--quick", "--json")
    assert code == 0
    obj = json.loads(out)
    assert out == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert obj["verdict"] == "PASS" and obj["rmax"] == 3
    assert all(c["status"] in {"PASS", "WARN"} for c in obj["checks"])


def test_verify_json_conflicts_with_format(capsys):
    # --json is --format json; asking for both must not silently drop one
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--json", "--format", "csv"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --format: not allowed with argument --json" in err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["betti", "-g", "2", "-r", "2"])  # missing -d
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["betti", "-g", "1", "-r", "2", "-d", "1"])  # genus guard
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["betti", "-g", "2", "--slope", "1/2", "--rmax", "1"])  # rmax < q
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["betti", "-g", "2", "-r", "2", "-d", "1", "--slope", "0", "--rmax", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, where",
    [
        ("strata -g 2 -r 0 -d 1", "(2, 0, 1)"),
        ("betti -g 2 -r 0 -d 1", "(2, 0, 1)"),
        ("detfactor -g 2 -r 0 -d 1", "(2, 0, 1)"),
        ("hdt -g 2 -r -1 -d 1", "(2, -1, 1)"),
        ("betti -g -3 -r 2 -d 1 --force-genus", "(-3, 2, 1)"),
        ("betti -g -3 -r 2 -d 1", "(-3, 2, 1)"),
        ("betti -g 0 -r 2 -d 2 --force-genus", "(0, 2, 2)"),
        ("hdt -g 2 -r 0 -d 0", "(2, 0, 0)"),
        ("hdt -g 2 -r 0 -d -1", "(2, 0, -1)"),
    ],
)
def test_domain_errors_exit_two(capsys, argv, where):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"(g, r, d) = {where}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        "betti -g 2 -r 0 -d 1",
        "hdt -g 2 -r 0 -d 0",
        "detfactor -g 2 --slope 1/3 --rmax 2",
        "strata -g 2 -r 2",
    ],
)
def test_class_errors_print_the_subcommand_usage(capsys, argv):
    # the same usage line and prefix as argparse's own errors for the subcommand
    command = argv.split()[0]
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith(f"usage: curvedt {command} [-h] -g GENUS")
    assert f"\ncurvedt {command}: error: " in err


def test_verification_failure_exits_one(capsys, monkeypatch):
    def not_self_dual(g, r, d):
        raise VerificationError(f"HDT at rank {r}, slope {d}/{r}, genus {g} is not self-dual")

    monkeypatch.setattr(cli, "ih_poincare", not_self_dual)
    code, _, err = run(capsys, "hdt", "-g", "2", "-r", "2", "-d", "1")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv, where", [
    ("hdt -g 2 --slope=1/2 --rmax 4", "(2, 2, 1), integrality of HDT"),
    ("betti -g 2 --slope=1/2 --rmax 4", "(2, 2, 1), integrality of HDT on the u = v image"),
    ("hdt -g 2 -r 0 -d 1", "(2, 0, 1), integrality of torsion HDT"),
])
def test_failed_division_names_the_class_and_stage(capsys, monkeypatch, argv, where):
    def not_divisible(p, *ks):
        raise NotDivisibleError("not divisible by 1 - L^3")

    monkeypatch.setattr(ring, "exact_divide_cyclo", not_divisible)
    invariants.hdt.cache_clear()  # a cached HDT would skip the division
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (1, "")
    assert err == f"error: class (g, r, d) = {where}: not divisible by 1 - L^3\n"


def test_library_value_error_exits_two(capsys, monkeypatch):
    def out_of_domain(g, r, d):
        raise ValueError(f"class ({g}, {r}, {d}) is outside the domain")

    monkeypatch.setattr(cli, "ih_poincare", out_of_domain)
    code, _, err = run(capsys, "hdt", "-g", "2", "-r", "2", "-d", "1")
    assert code == 2
    assert err == "error: class (2, 2, 1) is outside the domain\n"
    assert "Traceback" not in err


def test_negative_slope_needs_equals_sign(capsys):
    code, out, _ = run(capsys, "betti", "-g", "2", "--slope=-3/2", "--rmax", "4", "--half")
    assert code == 0
    assert "genus=2 rank=2 degree=-3 dim=5" in out and "rank=4 degree=-6" in out
    with pytest.raises(SystemExit) as exc:
        main(["betti", "-g", "2", "--slope", "-3/2", "--rmax", "4"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--slope: expected one argument" in err
    assert "Traceback" not in err


def test_render_poly_ordering_and_halves():
    p = LaurentPoly({(1, 1): -1, (-1, -1): -1, (2, 0): 1, (0, 0): 1})
    # sort by total degree, ties by u-exponent: (1/2,1/2) precedes (1,0)
    assert render_poly(p) == "-u^(-1/2)v^(-1/2) + 1 - u^(1/2)v^(1/2) + u"
    assert render_poly(LaurentPoly.zero()) == "0"


def test_hdt_table_skips_zero_betti_numbers(capsys, monkeypatch):
    # no golden has a zero Betti number: HDT(-y,-y) = sum of b_k y^(k - dim) over b_k != 0
    res = invariants.DTResult(2, 2, 1, 2, LaurentPoly.one(), LaurentPoly.one(), (1, 0, 3, 0, 1))
    monkeypatch.setattr(cli, "ih_poincare", lambda g, r, d: res)
    code, out, _ = run(capsys, "hdt", "-g", "2", "-r", "2", "-d", "1")
    assert code == 0
    assert out.splitlines()[-1] == "HDT(-y,-y) = y^(-2) + 3 + y^2"


@pytest.mark.parametrize(
    "argv, where",
    [
        ("strata -g 1 -r 2 -d 0 --force-genus", "(1, 2, 0)"),
        ("betti -g 1 -r 3 -d 0 --force-genus", "(1, 3, 0)"),
        ("detfactor -g 1 -r 2 -d 0 --force-genus", "(1, 2, 0)"),
        ("betti -g 1 --slope 1 --rmax 2 --force-genus", "(1, 2, 2)"),
    ],
)
def test_low_genus_non_coprime_classes_exit_two(capsys, argv, where):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"(g, r, d) = {where}" in err and "does not hold" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, where",
    [
        ("strata -g 0 -r 1 -d -1 --force-genus", "(0, 1, -1)"),
        ("strata -g 0 --slope=-1 --rmax 1 --force-genus", "(0, 1, -1)"),
    ],
)
def test_genus_zero_non_positive_framing_exits_two(capsys, argv, where):
    # d/r > 2g - 2 = -2 holds, but the framing d + (1 - g)r = 0 needs d/r > g - 1
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"(g, r, d) = {where}" in err and "framing d + (1-g)r = 0" in err
    assert "Traceback" not in err
    code, out, _ = run(capsys, "strata", "-g", "0", "-r", "1", "-d", "-2", "--force-genus")
    assert code == 0 and "verdict: PASS" in out
    code, out, _ = run(capsys, "betti", "-g", "0", "-r", "1", "-d", "-1", "--force-genus")
    assert code == 0 and "Betti: 1" in out


def test_hdt_keeps_low_genus_non_coprime_zero(capsys):
    code, out, _ = run(capsys, "hdt", "-g", "1", "-r", "2", "-d", "0", "--force-genus")
    assert code == 0 and "HDT = 0" in out


def test_hdt_low_genus_non_coprime_prints_no_dimension(capsys):
    # dim M(r,d) = (g-1)r^2 + 1 does not hold there: print the class as in
    # torsion mode, with neither a dimension nor Betti numbers
    argv = ["hdt", "-g", "1", "-r", "2", "-d", "0", "--force-genus"]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == "genus=1 rank=2 degree=0\nHDT = 0\n"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"degree": 0, "genus": 1, "hdt": [], "rank": 2}
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
    code, out, _ = run(capsys, "hdt", "-g", "1", "--slope=1/2", "--rmax", "4", "--force-genus")
    assert code == 0 and out.startswith("genus=1 rank=2 degree=1 dim=1\nHDT = ")
    assert out.endswith("\n\ngenus=1 rank=4 degree=2\nHDT = 0\n")


def cold_cli(*argv: str) -> subprocess.Popen:
    """``python -m curvedt.cli ARGV`` in a fresh interpreter, stdout and stderr piped."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.Popen([sys.executable, "-m", "curvedt.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_closed_stdout_exits_141_quietly(monkeypatch):
    # 310 KB of JSON: more than any pipe buffer holds, so a write fails, both when
    # stdout is buffered and when each 8 KB block is its own write (PYTHONUNBUFFERED)
    for unbuffered in (None, "1"):
        if unbuffered is None:
            monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
        else:
            monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
        proc = cold_cli("strata", "-g", "2", "--slope=3", "--rmax", "10", "--format", "json")
        assert proc.stdout.read(10) == b'[\n  {\n    '
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 141
        assert err == b""
