#!/usr/bin/env python3
"""SHA-256 of every output file of one pass of every benchmark workload.

Runs the ``spd-bench`` calls of every ``perfbench`` workload (taken from
``perfbench/workloads.py``, which is only imported) once, in this process,
and prints one line per call:

    workload call csv_sha256 svg_sha256

``call`` is the call's index within its workload and ``svg_sha256`` is
``-`` for a call that writes no plot.  BLAS runs on one thread, as in
``perfbench/run.py``.  Output bytes are a pure function of the seed on one
machine, numpy build and BLAS kernel, so diffing this script's output from
two checkouts on one machine shows whether a change moved any output.

Example, from the repository root:
    PYTHONPATH=src python3 scripts/output_digests.py --seed 101 > digests.txt
"""

import argparse
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads BLAS

import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from spdprivacy.cli import main as spd_bench  # noqa: E402


def parse_args():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    return parser.parse_args()


def digest(path) -> str:
    return "-" if path is None else hashlib.sha256(Path(path).read_bytes()).hexdigest()


def main():
    args = parse_args()
    for workload in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            if workload == "image-corpus":
                workloads.write_corpus(workdir / "corpus", args.seed, args.scale)
            for index, call in enumerate(workloads.calls(workload, args.seed, workdir, args.scale)):
                if spd_bench(call.argv()) != 0:
                    raise SystemExit(f"spd-bench {' '.join(call.argv())} failed")
                print(workload, index, digest(call.out_csv), digest(call.out_plot))


if __name__ == "__main__":
    main()
