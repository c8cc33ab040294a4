"""One workload in a fresh interpreter: warm-up pass, then timed passes.

Started by ``run.py``; writes its result as JSON to ``--result``.  Load is a
closed loop with one client: each ``spdprivacy.cli.main`` call starts when
the previous one returns.  A pass is the workload's list of calls; its wall
and CPU times sum the calls only, so the correctness checks that run after
each call are not timed.  In untraced passes the host-speed reference kernel
(``hostspeed.py``) is timed before the first call and after every call.
Passes repeat until ``--seconds`` have been measured (at least two, so
output can be compared across passes).

With ``--trace 1`` untraced and traced passes alternate, so the traced run
also measures its own overhead; only traced passes feed the span recorder.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import hostspeed
import tracing
import workloads

MIN_PASSES = 2

RELEASE_SPANS = (
    "mechanisms.tangent_gaussian",
    "mechanisms.extrinsic_gaussian",
    "mechanisms.riemannian_laplace",
    "mechanisms.calibrate_analytic",
    "mechanisms.calibrate_classical",
    "mechanisms.sensitivity_frechet_le",
    "mechanisms.sensitivity_extrinsic",
    "geometry.le_distance",
)
DATASET_SPANS = ("sampling.sample_synthetic_spd", "geometry.frechet_mean_le")
DESCRIPTOR_SPANS = ("descriptors.load_pnm", "descriptors.covariance_descriptor")


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cores_used": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


class Runner:
    def __init__(self, calls: list[workloads.Call]):
        from spdprivacy.mechanisms import ACCEPTANCE_BAND

        self.calls = calls
        self.band = ACCEPTANCE_BAND
        self.sigmas = [checks.expected_sigmas(c) for c in calls]
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.recorder: tracing.SpanRecorder | None = None

    def run_pass(self) -> tuple[list[float], list[float], list[float]]:
        """Run every call once; returns per-call wall and CPU seconds and,
        when untraced, the reference kernel's times around the calls (one
        more than there are calls)."""
        from spdprivacy import cli

        wall, cpu = [], []
        refs = [] if self.recorder is not None else [hostspeed.reference_seconds()]
        for index, call in enumerate(self.calls):
            argv = call.argv()
            self.attempted += 1
            if self.recorder is not None:
                self.recorder.job = self.attempted
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit):
                rc = traceback.format_exc(limit=3)
            wall.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
            if self.recorder is None:
                refs.append(hostspeed.reference_seconds())
            if rc == 0:
                found = self.check(index, call)
            else:
                found = [rc if isinstance(rc, str) else f"exit code {rc}"]
            if found:
                self.failed += 1
                self.problems += [f"call {index} ({' '.join(argv)}): {p}" for p in found]
        return wall, cpu, refs

    def check(self, index: int, call: workloads.Call) -> list[str]:
        try:
            data = Path(call.out_csv).read_bytes()
            svg = Path(call.out_plot).read_text() if call.out_plot else None
            text = data.decode()
        except (OSError, UnicodeDecodeError) as exc:
            return [f"output not readable: {exc}"]
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            return ["CSV differs from the first pass of this seed"]
        found = checks.check_csv(call, text, self.sigmas[index], self.band)
        if svg is not None:
            found += checks.check_svg(svg, call)
        return found


def layer_metrics(spans, counts, releases: int, wall: float, threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    summary = tracing.summarize(spans)
    out: dict[str, float] = {}
    for name, entry in summary.items():
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
        out[f"{name}.total_s"] = entry["total_s"]
    out.update(counts)

    def total(names):
        return sum(summary.get(n, {}).get("total_s", 0.0) for n in names)

    steps = counts.get("mechanisms.mcmc_steps", 0)
    laplace_s = summary.get("mechanisms.riemannian_laplace", {}).get("total_s", 0.0)
    out["mechanisms.mcmc_step_us"] = 1e6 * laplace_s / steps if steps else 0.0
    out["mechanisms.mcmc_acceptance"] = counts.get("mechanisms.mcmc_accepted", 0) / steps if steps else 0.0
    busy, run_wall = tracing.busy_seconds(spans, ("harness.run_synthetic", "harness.run_image"))
    out["harness.busy_frac"] = busy / (run_wall * threads) if run_wall else 0.0
    out["harness.releases"] = releases
    for key in ("matrices", "work_k3"):
        out[f"geometry.eigh.{key}_per_release"] = counts.get(f"geometry.eigh.{key}", 0) / releases
    images = summary.get("descriptors.load_pnm", {}).get("calls", 0)
    out["descriptors.images_per_s"] = images / wall
    out["share.release"] = total(RELEASE_SPANS) / wall
    out["share.dataset"] = total(DATASET_SPANS) / wall
    out["share.laplace"] = total(("mechanisms.riemannian_laplace",)) / wall
    out["share.descriptors"] = total(DESCRIPTOR_SPANS) / wall
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    import spdprivacy

    if args.src.resolve() not in Path(spdprivacy.__file__).resolve().parents:
        print(f"spdprivacy imported from {spdprivacy.__file__}, not {args.src}", file=sys.stderr)
        return 2

    calls = workloads.calls(args.workload, args.seed, args.workdir, args.scale)
    releases = sum(c.releases() for c in calls)
    threads = max(c.threads for c in calls)
    runner = Runner(calls)
    runner.run_pass()  # warm-up: caches, lazy imports, first page-in

    plain: list[tuple[list[float], list[float], list[float]]] = []
    traced: list[tuple[float, dict]] = []
    all_spans: list[tuple] = []
    measured = 0.0
    while measured < args.seconds or len(plain) < MIN_PASSES or (args.trace and len(traced) < MIN_PASSES):
        plain.append(runner.run_pass())
        measured += sum(plain[-1][0])
        if args.trace:
            recorder = runner.recorder = tracing.SpanRecorder()
            recorder.install()
            try:
                wall = sum(runner.run_pass()[0])
            finally:
                recorder.uninstall()
                runner.recorder = None
            measured += wall
            traced.append((wall, layer_metrics(recorder.spans, recorder.counts, releases, wall, threads)))
            all_spans += recorder.spans

    walls = [sum(w) for w, _, _ in plain]
    result = {
        "workload": args.workload,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
        "passes": len(plain),
        "releases_per_pass": releases,
        "call_wall_s": [w for w, _, _ in plain],
        "call_cpu_s": [c for _, c, _ in plain],
        "reference_s": [r for _, _, r in plain],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "env": environment(args.seed),
    }
    if args.trace:
        keys = sorted({k for _, m in traced for k in m})
        layers = {k: statistics.median(m.get(k, 0.0) for _, m in traced) for k in keys}
        layers["trace.overhead_s"] = statistics.median(w for w, _ in traced) - statistics.median(walls)
        result["layers"] = layers
        result["traced_passes"] = len(traced)
        if args.spans:
            with args.spans.open("w") as fh:
                fh.write("id,name,start,end,parent,job,thread\n")
                for span in all_spans:
                    fh.write(",".join(map(str, span)) + "\n")
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
