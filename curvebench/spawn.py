"""Run one command and report its times and peak memory.

    python3 -I -S curvebench/spawn.py REPORT_JSON PROGRAM ARG...

``run.py`` starts every measured command through this script.  A child
of the benchmark would inherit the benchmark's peak RSS as the floor of
its own ``ru_maxrss``: Linux carries the peak RSS of the memory image a
process had before ``exec`` over into its rusage, and a forked child
starts with its parent's pages.  This script is a small interpreter, so
the command it forks starts from a floor of a few MB, not from the
benchmark's.  PROGRAM inherits stdin, stdout, stderr and the
environment.  REPORT_JSON gets the exit code, the start and end times
on the system-wide ``perf_counter`` clock, the user+sys CPU seconds and
the max RSS in MB.
"""

import json
import os
import sys
from time import perf_counter


def main() -> None:
    report, program, *args = sys.argv[1:]
    start = perf_counter()
    pid = os.posix_spawn(program, [program, *args], os.environ)
    _, status, usage = os.wait4(pid, 0)
    end = perf_counter()
    with open(report, "w") as f:
        json.dump({
            "returncode": os.waitstatus_to_exitcode(status),
            "start": start,
            "end": end,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024,
        }, f)


if __name__ == "__main__":
    main()
