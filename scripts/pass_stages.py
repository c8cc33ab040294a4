#!/usr/bin/env python3
"""Wall time per stage of a pass of a benchmark workload, in ms per pass.

Runs the ``spd-bench`` calls of one pass of a ``perfbench`` workload (taken
from ``perfbench/workloads.py``, which is only imported) in this process,
after one unreported warm-up pass, and times these stages by wrapping the
functions the CLI reaches them through:

  data         harness._mean_log (a synthetic dataset's draw, or an image
               class's parse and descriptors, folded into its summary)
  cells        harness._run_cells (calibration, releases and utilities)
  descriptors  descriptors._BlockBuffers.sample_descriptors (a block of
               images' descriptors), wrapped on the class
  csv          cli.emit_csv
  svg          cli.emit_plot

Stages nest: the fold draws or reads its blocks as it goes, so
``descriptors`` time is also ``data`` time; with ``--resample-data``
(``fresh-data``) every trial draws its dataset inside ``_run_cells``, so
``data`` time is also ``cells`` time.
``pass`` is the whole pass.  Each time is put on the host-speed scale of
``perfbench/hostspeed.py``: scaled by REFERENCE_S over the mean time of its
reference kernel, run WINDOW times before and after each pass.  The process
is pinned to one core and BLAS to one thread, as in ``perfbench/run.py``.

Example, from the repository root:
    PYTHONPATH=src python3 scripts/pass_stages.py --workload gaussian-grid --passes 5
"""

import argparse
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads BLAS

import functools  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

import spdprivacy  # noqa: E402
from spdprivacy import cli, descriptors, harness  # noqa: E402

STAGES = (
    ("data", harness, "_mean_log"),
    ("cells", harness, "_run_cells"),
    ("descriptors", descriptors._BlockBuffers, "sample_descriptors"),
    ("csv", cli, "emit_csv"),
    ("svg", cli, "emit_plot"),
)


def parse_args():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--seed", type=int, default=3)
    return parser.parse_args()


def timed(totals: Counter, name: str, fn):
    """``fn``, adding its wall time in seconds to ``totals[name]``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name] += time.perf_counter() - start

    return wrapper


def run_pass(calls, totals: Counter) -> None:
    start = time.perf_counter()
    for call in calls:
        if cli.main(call.argv()) != 0:
            raise SystemExit(f"spd-bench {' '.join(call.argv())} failed")
    totals["pass"] += time.perf_counter() - start


def reference_window() -> list[float]:
    return [hostspeed.reference_seconds() for _ in range(hostspeed.WINDOW)]


def main():
    args = parse_args()
    if args.passes < 1:
        raise SystemExit("--passes must be >= 1")
    core = hostspeed.pin_to_one_core()
    print(f"# {args.workload} ({args.scale}), seed {args.seed}, core {core}, "
          f"spdprivacy from {Path(spdprivacy.__file__).parent}")
    names = ["pass"] + [name for name, *_ in STAGES]
    print("pass " + " ".join(f"{name}_ms" for name in names))
    totals = Counter()
    for name, module, attr in STAGES:
        setattr(module, attr, timed(totals, name, getattr(module, attr)))
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        calls = workloads.calls(args.workload, args.seed, workdir, args.scale)
        if args.workload == "image-corpus":
            workloads.write_corpus(workdir / "corpus", args.seed, args.scale)
        run_pass(calls, totals)
        before = reference_window()
        for index in range(1, args.passes + 1):
            totals.clear()
            run_pass(calls, totals)
            after = reference_window()
            scale = 1e3 * hostspeed.REFERENCE_S / statistics.fmean(before + after)
            rows.append([scale * totals[name] for name in names])
            print(f"{index} " + " ".join(f"{ms:.1f}" for ms in rows[-1]))
            before = after
    print("median " + " ".join(f"{statistics.median(col):.1f}" for col in zip(*rows)))


if __name__ == "__main__":
    main()
