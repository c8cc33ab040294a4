#!/usr/bin/env python3
"""SHA-256 of every output file of one pass of every benchmark workload.

Runs the ``spd-bench`` calls of every ``perfbench`` workload (taken from
``perfbench/workloads.py``, which is only imported) once, in this process,
and prints one line per call:

    workload call csv_sha256 svg_sha256

``call`` is the call's index within its workload and ``svg_sha256`` is
``-`` for a call that writes no plot.  Output bytes are a pure function of
the seed on one machine, numpy build and BLAS kernel (one BLAS thread, see
``workload_passes.py``), so diffing this script's output from two checkouts
on one machine shows whether a change moved any output.

Example, from the repository root:
    PYTHONPATH=src python3 scripts/output_digests.py --seed 101 > digests.txt
"""

import argparse
import hashlib
import tempfile
from pathlib import Path

from workload_passes import run_pass, workload_inputs, workloads


def digest(path) -> str:
    return "-" if path is None else hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    args = parser.parse_args()
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            calls = workload_inputs(workload, args.seed, Path(tmp), args.scale)
            run_pass(calls)
            for index, call in enumerate(calls):
                print(workload, index, digest(call.out_csv), digest(call.out_plot))


if __name__ == "__main__":
    main()
