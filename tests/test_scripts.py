"""The scripts under ``scripts/`` run end to end against the package."""

import os
import subprocess
import sys
from pathlib import Path

from spdprivacy.harness import CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent


def run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_scripts_write_canonical_csv(tmp_path):
    run([ROOT / "scripts" / "synthetic_utility_sweep.py", "--ks", "2", "--trials", "1",
         "--n", "20", "--burn-in", "10", "--mechanisms", "tangent_analytic,riemannian_laplace"],
        tmp_path)
    run([ROOT / "scripts" / "make_image_corpus.py", "corpus", "--classes", "2",
         "--per-class", "20", "--size", "8"], tmp_path)
    run(["-m", "spdprivacy", "image-bench", "--images", "corpus", "--trials", "1",
         "--out-csv", "image.csv"], tmp_path)
    for name in ("synthetic_sweep.csv", "image.csv"):
        assert (tmp_path / name).read_text().splitlines()[0] == CSV_HEADER


def test_pass_rusage_reports_each_pass(tmp_path):
    out = run([ROOT / "scripts" / "pass_rusage.py", "--workload", "fresh-data", "--passes", "1",
               "--scale", "tiny"], tmp_path)
    lines = out.splitlines()
    assert lines[1] == "pass minor_faults user_ms sys_ms maxrss_mb"
    fields = lines[2].split()
    assert len(lines) == 3 and fields[0] == "1"
    assert int(fields[1]) >= 0 and all(float(v) >= 0 for v in fields[2:])


def test_pass_stages_reports_each_stage(tmp_path):
    out = run([ROOT / "scripts" / "pass_stages.py", "--workload", "gaussian-grid", "--passes", "1",
               "--scale", "tiny"], tmp_path)
    lines = out.splitlines()
    assert lines[1] == "pass pass_ms data_ms cells_ms descriptors_ms csv_ms svg_ms"
    assert len(lines) == 4 and lines[2].split()[0] == "1" and lines[3].split()[0] == "median"
    total, data, cells, descriptors, csv, svg = map(float, lines[2].split()[1:])
    assert descriptors == 0 and min(data, cells, csv, svg) > 0
    assert data + cells + csv + svg <= total
    # an image class is folded like a dataset, so its descriptors nest in data
    out = run([ROOT / "scripts" / "pass_stages.py", "--workload", "image-corpus", "--passes", "1",
               "--scale", "tiny"], tmp_path)
    total, data, cells, descriptors, csv, svg = map(float, out.splitlines()[2].split()[1:])
    assert 0 < descriptors <= data and data + cells + csv <= total
