#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py

1. Runs every workload at the tiny scale, untraced and traced, and asserts
   that the result line holds exactly the metrics of BENCHMARK.json, each
   with its unit, and that every check passed.
2. Runs each workload's calls in-process, then corrupts the CSV and SVG
   output in several ways and asserts that the checks reject every
   corruption, including a CSV that differs between passes of one seed.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, and asserts that it fails without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result_lines() -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr[-2000:])
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, lines)
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
            for name, metric in result["metrics"].items():
                assert metric["unit"] == expected[name], name
                assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
                assert any(line.split()[:1] == [name] and line.split()[-1] == expected[name]
                           for line in lines[:-1]), f"{name} not printed with its unit"
                if key == "end_to_end":
                    assert metric["value"] > 0, name
            print(f"ok  {workload} --trace {trace}: {len(expected)} metrics")


def _scale_utilities(text: str, factor: float) -> str:
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        fields = line.split(",")
        fields[5] = repr(float(fields[5]) * factor)
        out.append(",".join(fields))
    return "\n".join(out) + "\n"


def _set_field(text: str, column: int, value: str) -> str:
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[column] = value
    lines[1] = ",".join(fields)
    return "\n".join(lines) + "\n"


CORRUPTIONS = {
    "utilities x10": lambda t: _scale_utilities(t, 10.0),
    "row dropped": lambda t: "\n".join(t.splitlines()[:-1]) + "\n",
    "row duplicated": lambda t: t + t.splitlines()[-1] + "\n",
    "header changed": lambda t: t.replace("utility", "utilty", 1),
    "negative utility": lambda t: _set_field(t, 5, "-1.0"),
    "nonzero wall time": lambda t: _set_field(t, 6, "17"),
    "trial out of range": lambda t: _set_field(t, 4, "999"),
}


def check_corruptions() -> None:
    for workload in workloads.WORKLOADS:
        workdir = HERE / ".work" / f"selftest-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            if workload == "image-corpus":
                workloads.write_corpus(workdir / "corpus", 7, "tiny")
            runner = worker.Runner(workloads.calls(workload, 7, workdir, "tiny"))
            runner.run_pass()
            assert runner.failed == 0, runner.problems
            for index, call in enumerate(runner.calls):
                good = Path(call.out_csv).read_text()
                sigmas = runner.sigmas[index]
                assert checks.check_csv(call, good, sigmas, runner.band) == []
                cases = dict(CORRUPTIONS)
                if call.mechanism == "riemannian_laplace":
                    cases["acceptance out of band"] = lambda t: _set_field(t, 7, "0.01")
                else:
                    cases["acceptance on a chain-free mechanism"] = lambda t: _set_field(t, 7, "0.5")
                for what, corrupt in cases.items():
                    found = checks.check_csv(call, corrupt(good), sigmas, runner.band)
                    assert found, f"{workload} call {index}: '{what}' not detected"
                if call.out_plot:
                    svg = Path(call.out_plot).read_text()
                    assert checks.check_svg(svg, call) == []
                    assert checks.check_svg(svg[: len(svg) // 2], call), "truncated SVG not detected"
                Path(call.out_csv).write_text(_scale_utilities(good, 1.0 + 1e-12))
                assert runner.check(index, call), "CSV changed between passes not detected"
            print(f"ok  {workload}: every corruption rejected")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def check_without_program() -> None:
    bare = HERE / ".work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run_bench(bare, "fresh-data", 0)
        assert proc.returncode != 0, "benchmark succeeded without the program"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without the program"
        print("ok  no result and a nonzero exit without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_without_program()
    check_corruptions()
    check_result_lines()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
