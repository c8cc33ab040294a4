#!/usr/bin/env python3
"""Minor page faults, CPU time and peak RSS per pass of a benchmark workload.

Runs the ``spd-bench`` calls of one pass of a ``perfbench`` workload (taken
from ``perfbench/workloads.py``, which is only imported) in this process,
after one unreported warm-up pass, and reads ``getrusage`` before and after
each measured pass.  Per pass it prints the minor page faults, the user and
system CPU time, and ``ru_maxrss`` (the process's peak resident set so far).
The process is pinned to one core and BLAS to one thread, as in
``perfbench/run.py``.

Example, from the repository root:
    PYTHONPATH=src python3 scripts/pass_rusage.py --workload fresh-data --passes 5
"""

import argparse
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads BLAS

import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

import spdprivacy  # noqa: E402
from spdprivacy.cli import main as spd_bench  # noqa: E402


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--seed", type=int, default=3)
    return parser.parse_args()


def run_pass(calls) -> None:
    for call in calls:
        if spd_bench(call.argv()) != 0:
            raise SystemExit(f"spd-bench {' '.join(call.argv())} failed")


def main():
    args = parse_args()
    if args.passes < 1:
        raise SystemExit("--passes must be >= 1")
    core = hostspeed.pin_to_one_core()
    print(f"# {args.workload} ({args.scale}), seed {args.seed}, core {core}, "
          f"spdprivacy from {Path(spdprivacy.__file__).parent}")
    print("pass minor_faults user_ms sys_ms maxrss_mb")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        calls = workloads.calls(args.workload, args.seed, workdir, args.scale)
        if args.workload == "image-corpus":
            workloads.write_corpus(workdir / "corpus", args.seed, args.scale)
        run_pass(calls)
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
