#!/usr/bin/env python3
"""Minor page faults, CPU time and peak RSS per pass of a benchmark workload.

Reads ``getrusage`` before and after each pass (see ``workload_passes.py``).
Per pass it prints the minor page faults, the user and system CPU time, and
``ru_maxrss`` (the process's peak resident set so far).

Example, from the repository root:
    PYTHONPATH=src python3 scripts/pass_rusage.py --workload fresh-data --passes 5
"""

import resource

from workload_passes import run_pass, workload_calls


def main():
    with workload_calls(__doc__, "pass minor_faults user_ms sys_ms maxrss_mb") as (args, calls):
        for index in range(1, args.passes + 1):
            before = resource.getrusage(resource.RUSAGE_SELF)
            run_pass(calls)
            after = resource.getrusage(resource.RUSAGE_SELF)
            print(
                f"{index} {after.ru_minflt - before.ru_minflt} "
                f"{1e3 * (after.ru_utime - before.ru_utime):.1f} "
                f"{1e3 * (after.ru_stime - before.ru_stime):.1f} "
                f"{after.ru_maxrss / 1024:.1f}"
            )


if __name__ == "__main__":
    main()
