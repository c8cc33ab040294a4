#!/usr/bin/env python3
"""Benchmark of the ``spd-bench`` user path, one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload gaussian-grid --seed 1 --seconds 20 --trace 0

The run writes the workload's inputs (for ``image-corpus``, a seeded PNM
corpus), measures set-up time as the median of several fresh-interpreter
``import spdprivacy`` timings, half taken before the workload and half after
it, and runs the workload in a fresh interpreter (``worker.py``) with BLAS
on one thread.  The run and its children are pinned to one core, and every
time is put on the host-speed scale of ``hostspeed.py``; the times as
measured are printed and kept too.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  The
lines before it print every metric by name and unit, the environment and
any failed check.  The full record is kept under ``perfbench/.work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 6  # half before the workload, half after it
TIME_LIMIT_S = 170.0
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import spdprivacy; "
    "print(repr(time.perf_counter() - t)); print(spdprivacy.__file__)"
)


def child_env(src: Path) -> dict[str, str]:
    """Environment of the child interpreters.  BLAS runs on one thread: the
    program's matrices are at most 30 x 30, where a second OpenBLAS thread
    adds no speed but spins on a core, which doubles CPU time and makes
    timings follow whatever else the host runs on that core."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def import_seconds(env: dict[str, str], src: Path) -> float:
    """``import spdprivacy`` time in a fresh interpreter, as measured."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
        text=True, timeout=60, check=True,
    ).stdout.split("\n")
    if src not in Path(out[1]).resolve().parents:
        raise RuntimeError(f"spdprivacy imported from {out[1]}, not from {src}")
    return float(out[0])


def setup_probes(env: dict[str, str], src: Path, count: int) -> list[tuple[float, float]]:
    """``count`` import timings, each as (as measured, host-speed scaled by
    the kernel timed between the probes)."""
    refs = [hostspeed.reference_seconds()]
    times = []
    for _ in range(count):
        times.append(import_seconds(env, src))
        refs.append(hostspeed.reference_seconds())
    return list(zip(times, hostspeed.scaled([times], [refs])[0]))


def pass_seconds(per_pass: list[list[float]], refs: list[list[float]] | None = None) -> float:
    """Time of one pass: the sum over its calls of each call's median time
    across passes.  With ``refs``, the times are first put on the host-speed
    scale."""
    if refs is not None:
        per_pass = hostspeed.scaled(per_pass, refs)
    return sum(statistics.median(times) for times in zip(*per_pass))


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="'tiny' is the self-test's smoke size")
    args = parser.parse_args()

    core = hostspeed.pin_to_one_core()
    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "spdprivacy" / "__init__.py").is_file():
        print(f"error: no spdprivacy sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = HERE / ".work"
    scratch = work / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        if args.workload == "image-corpus":
            workloads.write_corpus(scratch / "corpus", args.seed, args.scale)
        env = child_env(src)
        setup = []
        if not args.trace:
            import_seconds(env, src)  # fills the bytecode and page caches
            setup = setup_probes(env, src, SETUP_RUNS // 2)
        result_path = scratch / "result.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", args.scale, "--workdir", str(scratch), "--src", str(src),
            "--result", str(result_path),
        ]
        if args.trace:
            cmd += ["--spans", str(work / f"{args.workload}.spans.csv")]
        # Leave time for the set-up probes that follow the worker.
        timeout = TIME_LIMIT_S - 15.0 - (time.monotonic() - started)
        proc = subprocess.run(cmd, env=env, timeout=timeout)
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
        if not args.trace:
            # Spread over the run, so one burst of host load cannot cover them all.
            setup += setup_probes(env, src, SETUP_RUNS - len(setup))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    measured = {}
    if args.trace:
        values = result["layers"]
    else:
        refs = result["reference_s"]
        wall = pass_seconds(result["call_wall_s"], refs)
        values = {
            "setup_s": statistics.median(s for _, s in setup),
            "wall_s": wall,
            "releases_per_s": result["releases_per_pass"] / wall,
            "cpu_s": pass_seconds(result["call_cpu_s"], refs),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        measured = {
            "setup_s": statistics.median(m for m, _ in setup),
            "wall_s": pass_seconds(result["call_wall_s"]),
            "cpu_s": pass_seconds(result["call_cpu_s"]),
            "reference_s": statistics.median(r for rs in refs for r in rs),
        }
        result["setup_s"] = setup
        result["measured"] = measured
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    result["metrics"] = metrics
    (work / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True)
    )

    print(f"workload {args.workload}  seed {args.seed}  passes {result['passes']}  "
          f"releases/pass {result['releases_per_pass']}  core {core}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}")
    for name, value in measured.items():
        print(f"  as measured: {name:31s} {value:>16.6g} s")
    if measured:
        print(f"  (times above are scaled to a reference kernel time of "
              f"{hostspeed.REFERENCE_S} s; see hostspeed.py)")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':44s} {failed_frac:>16.6g} frac")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
