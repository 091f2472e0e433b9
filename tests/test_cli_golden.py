"""Byte-exact CLI output: stdout and stderr of fixed commands, each exiting 0.

Each command's stdout is stored in ``tests/golden/<name>.txt``, or, for
an output too large to store, its sha256 is pinned in ``DIGESTS``.  Its
stderr is pinned in ``STDERR``: empty but for the out-of-range stratum
warning.  The commands run in-process through ``curvedt.cli.main``; one
per subcommand, the full verify suite and the out-of-range warning
besides (``COLD``), run again as ``python -m curvedt.cli`` in a fresh
interpreter, where each command imports only the modules it runs.  To record the files again after a
deliberate output change, run

    PYTHONPATH=src python tests/test_cli_golden.py [NAME ...]

and review the diff of ``tests/golden/``.  With names, only those
goldens are recorded; with none, all of them are.  A digest is edited by
hand, after its command's new output has been reviewed.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from curvedt.cli import main
from test_cli import cold_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# (name, argv)
COMMANDS = [
    ("betti_table", "betti -g 2 -r 3 -d 1"),
    ("betti_json", "betti -g 2 -r 2 -d 1 --format json"),
    ("betti_csv_half", "betti -g 2 -r 2 -d 0 --format csv --half"),
    ("betti_slope_neg", "betti -g 2 --slope=-3/2 --rmax 4 --half"),
    ("hdt_table", "hdt -g 2 -r 2 -d 1"),
    ("hdt_json", "hdt -g 2 -r 2 -d 0 --format json"),
    ("hdt_csv", "hdt -g 2 -r 2 -d 1 --format csv"),
    ("hdt_torsion", "hdt -g 2 -r 0 -d 1"),
    ("hdt_force_genus", "hdt -g 1 -r 2 -d 1 --force-genus"),
    ("hdt_slope_json", "hdt -g 2 --slope=1/2 --rmax 4 --format json"),
    ("hdt_torsion_json", "hdt -g 2 -r 0 -d 2 --format json"),
    ("betti_slope_json", "betti -g 2 --slope=0 --rmax 3 --format json"),
    ("detfactor_table_half", "detfactor -g 3 -r 2 -d 1 --half"),
    ("detfactor_csv", "detfactor -g 2 -r 3 -d 1 --format csv"),
    ("detfactor_slope_json", "detfactor -g 2 --slope=0 --rmax 3 --format json"),
    ("strata_table", "strata -g 2 -r 2 -d 6"),
    ("strata_csv", "strata -g 2 -r 3 -d 7 --format csv"),
    ("strata_slope_json_generic", "strata -g 2 --slope=5/2 --rmax 4 --format json --generic-bound"),
    ("strata_json", "strata -g 2 -r 2 -d 6 --format json"),
    ("hdt_torsion_csv", "hdt -g 2 -r 0 -d 1 --format csv"),
    ("verify_quick_json", "verify --quick --json"),
    ("strata_slope_json", "strata -g 3 --slope=5 --rmax 6 --format json"),
    ("strata_slope_table", "strata -g 3 --slope=5 --rmax 6"),
    ("strata_slope_csv", "strata -g 2 --slope=7/2 --rmax 6 --format csv"),
    ("betti_slope_half", "betti -g 2 --slope=1/2 --rmax 6"),
    ("detfactor_slope_csv", "detfactor -g 3 --slope=9/2 --rmax 4 --format csv"),
    ("betti_force_genus", "betti -g 1 -r 3 -d 1 --force-genus"),
    ("detfactor_force_genus_half", "detfactor -g 1 -r 2 -d 1 --force-genus --half"),
    ("betti_slope_rank_ten_half", "betti -g 2 --slope=0 --rmax 10 --half"),
    ("detfactor_rank_nine_half", "detfactor -g 2 -r 9 -d 3 --half"),
    ("hdt_rank_six_csv", "hdt -g 2 -r 6 -d 2 --format csv"),
    ("hdt_rank_seven_negative_csv", "hdt -g 2 -r 7 --degree=-4 --format csv"),
    ("hdt_genus_three_csv", "hdt -g 3 -r 4 -d 2 --format csv"),
    ("betti_csv", "betti -g 3 -r 3 -d 1 --format csv"),
    ("detfactor_table", "detfactor -g 2 -r 4 -d 1"),
    ("detfactor_csv_half", "detfactor -g 3 -r 3 -d 1 --format csv --half"),
    ("hdt_genus_one_gcd_json", "hdt -g 1 -r 2 -d 0 --force-genus --format json"),
    ("betti_genus_zero", "betti -g 0 -r 1 -d 0 --force-genus"),
    ("hdt_genus_zero_json", "hdt -g 0 -r 1 -d 0 --force-genus --format json"),
    ("strata_out_of_range_json", "strata -g 3 -r 4 -d 2 --format json"),
    ("strata_genus_one", "strata -g 1 -r 2 -d 1 --force-genus"),
    ("strata_generic_one_class", "strata -g 2 -r 4 -d 12 --generic-bound"),
    ("detfactor_genus_zero", "detfactor -g 0 -r 1 -d 0 --force-genus"),
    ("strata_genus_zero", "strata -g 0 -r 1 -d 0 --force-genus"),
    ("verify_json", "verify --json"),
    ("verify_table", "verify"),
    ("verify_csv", "verify --format csv"),
    ("hdt_table_genus_three", "hdt -g 3 -r 3 -d 1"),
    ("hdt_slope_table", "hdt -g 2 --slope=1/2 --rmax 4"),
]


# name -> the stderr of its command; every other command writes none
STDERR = {
    "strata_out_of_range_json": "warning: slope 1/2 is not above 4: smallness is certified "
                                "arithmetic only, outside the theorem's hypothesis\n",
}


def _run(argv: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, argv", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_cli_output_is_byte_identical(name, argv):
    code, got, err = _run(argv)
    assert (code, err) == (0, STDERR.get(name, ""))
    assert got.encode() == (GOLDEN / f"{name}.txt").read_bytes()


# (argv, sha256 of stdout): outputs too large to store, pinned by digest.  The
# products of hdt at (5, 6, 1) reach 8- and 9-byte Kronecker slots, one and two
# 64-bit words each; its JSON is 939 kB.
DIGESTS = [
    ("hdt -g 5 -r 6 -d 1 --format json",
     "2457baa461fe36b66eabc8dc061cc5033b38c7a008a7697e1852a583919dacb9"),
    # non-coprime classes: the Log subtracts Adams images of lower ranks
    ("hdt -g 2 -r 8 -d 0 --format json",
     "bd9cd3512e58aecea50d5f80dcabc1b0ff307d5afab02185a56b1f3ba607a6c9"),
    ("hdt -g 3 -r 6 -d 0 --format json",
     "a5b239dbaa15dea08f2551835c11bee4aac01657c64d1200e40ef90686aa7a85"),
]


@pytest.mark.parametrize("argv, digest", DIGESTS, ids=[a for a, _ in DIGESTS])
def test_cli_output_digest(argv, digest):
    code, got, _ = _run(argv)
    assert code == 0
    assert hashlib.sha256(got.encode()).hexdigest() == digest


COLD = ("betti_table", "hdt_json", "detfactor_table", "strata_table", "verify_quick_json",
        "verify_json", "strata_out_of_range_json")


@pytest.mark.parametrize("name", COLD)
def test_cold_process_output_is_byte_identical(name):
    proc = cold_cli(*dict(COMMANDS)[name].split())
    out, err = proc.communicate()
    assert (proc.returncode, err) == (0, STDERR.get(name, "").encode())
    assert out == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    names = set(sys.argv[1:])
    unknown = names - {name for name, _ in COMMANDS}
    if unknown:
        sys.exit(f"unknown golden: {', '.join(sorted(unknown))}")
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS:
        if names and name not in names:
            continue
        code, got, _ = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.txt").write_bytes(got.encode())
