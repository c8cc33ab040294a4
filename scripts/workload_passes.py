"""What ``scripts/`` share: ``perfbench/`` on ``sys.path``, BLAS on one
thread as in ``perfbench/run.py``, and a pass: the ``spd-bench`` calls of one
pass of a ``perfbench/workloads.py`` workload, run in this process.  Import
this module before anything loads numpy.
"""

import argparse
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads BLAS

import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

import spdprivacy  # noqa: E402
from spdprivacy.__main__ import main as spd_bench  # noqa: E402


def workload_inputs(workload: str, seed: int, workdir: Path, scale: str) -> list:
    """The calls of one pass of ``workload``, its inputs written under ``workdir``."""
    if workload == "image-corpus":
        workloads.write_corpus(workdir / "corpus", seed, scale)
    return workloads.calls(workload, seed, workdir, scale)


def run_pass(calls, *flags: str) -> None:
    """Run every call of a pass, each with ``flags`` appended."""
    for call in calls:
        if spd_bench(call.argv() + list(flags)) != 0:
            raise SystemExit(f"spd-bench {' '.join(call.argv())} failed")


@contextmanager
def workload_calls(doc: str, columns: str, *flags: str):
    """Parse the command line ``doc`` describes, pin the process, print the
    header and ``columns``, write the inputs, run a warm-up pass with
    ``flags``, and yield the arguments and the calls."""
    parser = argparse.ArgumentParser(
        description=doc, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    if args.passes < 1:
        raise SystemExit("--passes must be >= 1")
    core = hostspeed.pin_to_one_core()
    print(f"# {args.workload} ({args.scale}), seed {args.seed}, core {core}, "
          f"spdprivacy from {Path(spdprivacy.__file__).parent}")
    print(columns)
    with tempfile.TemporaryDirectory() as tmp:
        calls = workload_inputs(args.workload, args.seed, Path(tmp), args.scale)
        run_pass(calls, *flags)
        yield args, calls
