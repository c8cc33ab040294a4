"""The scripts under ``scripts/`` run end to end against the package."""

import os
import subprocess
import sys
from pathlib import Path

from spdprivacy.harness import CSV_HEADER

ROOT = Path(__file__).resolve().parent.parent


def run(args, cwd, returncode=0):
    """The script's stdout, or its stderr when it is to fail with ``returncode``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == returncode, done.stderr
    return done.stdout if returncode == 0 else done.stderr


def tree(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_scripts_write_canonical_csv(tmp_path):
    run([ROOT / "scripts" / "synthetic_utility_sweep.py", "--ks", "2", "--trials", "1",
         "--n", "20", "--burn-in", "10", "--mechanisms", "tangent_analytic,riemannian_laplace"],
        tmp_path)
    run([ROOT / "scripts" / "make_image_corpus.py", "corpus", "--seed", "3", "--scale", "tiny"],
        tmp_path)
    run(["-m", "spdprivacy", "image-bench", "--images", "corpus", "--trials", "1",
         "--out-csv", "image.csv"], tmp_path)
    for name in ("synthetic_sweep.csv", "image.csv"):
        assert (tmp_path / name).read_text().splitlines()[0] == CSV_HEADER


def test_make_image_corpus_writes_the_workload_corpus(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    args = [ROOT / "scripts" / "make_image_corpus.py", "corpus", "--seed", "3", "--scale", "tiny"]
    assert run(args, tmp_path) == "wrote 900 pgm/ppm files under corpus\n"
    workloads.write_corpus(tmp_path / "expected", 3, "tiny")
    written = tree(tmp_path / "corpus")
    assert sorted({name.parts[0] for name in written}) == ["gray0", "rgb"]
    assert written == tree(tmp_path / "expected")
    # a class directory that exists is never overwritten
    (tmp_path / "corpus" / "gray0" / "0000.pgm").write_bytes(b"kept")
    error = run(args, tmp_path, returncode=1).splitlines()
    assert len(error) == 1 and error[0].startswith(f"error: {Path('corpus', 'gray0')} exists")
    assert (tmp_path / "corpus" / "gray0" / "0000.pgm").read_bytes() == b"kept"
    # nor is any other class written next to one that exists
    (tmp_path / "other" / "rgb").mkdir(parents=True)
    error = run(args[:1] + ["other"] + args[2:], tmp_path, returncode=1).splitlines()
    assert len(error) == 1 and error[0].startswith(f"error: {Path('other', 'rgb')} exists")
    assert [p.name for p in (tmp_path / "other").iterdir()] == ["rgb"]


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
    assert lines[1] == (
        "pass pass_ms data_ms cells_ms release_ms descriptors_ms logm_ms csv_ms svg_ms"
    )
    assert len(lines) == 4 and lines[2].split()[0] == "1" and lines[3].split()[0] == "median"
    total, data, cells, release, descriptors, logm, csv, svg = map(float, lines[2].split()[1:])
    assert descriptors == logm == 0 and min(data, cells, csv, svg) > 0
    assert 0 < release <= cells and data + cells + csv + svg <= total
    # an image class is folded like a dataset, so its descriptors and their
    # logs nest in data
    out = run([ROOT / "scripts" / "pass_stages.py", "--workload", "image-corpus", "--passes", "1",
               "--scale", "tiny"], tmp_path)
    fields = out.splitlines()[2].split()[1:]
    total, data, cells, release, descriptors, logm, csv, svg = map(float, fields)
    assert 0 < descriptors <= data and 0 < logm <= data and data + cells + csv <= total
    assert 0 < release <= cells
    # a cell's chains run inside its one release call, on the calling thread
    out = run([ROOT / "scripts" / "pass_stages.py", "--workload", "laplace-chain", "--passes", "1",
               "--scale", "tiny"], tmp_path)
    fields = out.splitlines()[2].split()[1:]
    total, data, cells, release, descriptors, logm, csv, svg = map(float, fields)
    assert 0 < release <= cells and data + cells + csv <= total


def test_pass_stages_nests_resampled_draws_in_cells(tmp_path):
    # fresh-data draws every trial's dataset inside its cell
    out = run([ROOT / "scripts" / "pass_stages.py", "--workload", "fresh-data", "--passes", "1",
               "--scale", "tiny"], tmp_path)
    fields = out.splitlines()[2].split()[1:]
    total, data, cells, release, descriptors, logm, csv, svg = map(float, fields)
    assert 0 < data <= cells and 0 < release <= cells and cells + csv <= total


def test_output_digests_one_line_per_call(tmp_path):
    args = [ROOT / "scripts" / "output_digests.py", "--seed", "5", "--scale", "tiny"]
    out = run(args, tmp_path)
    rows = [line.split() for line in out.splitlines()]
    assert len(rows) == 14 and run(args, tmp_path) == out
    # workload, call index, CSV digest, SVG digest ("-" unless the call plots)
    assert [(w, int(i), svg != "-") for w, i, _, svg in rows] == (
        [("gaussian-grid", i, True) for i in range(9)]
        + [("fresh-data", i, False) for i in range(2)]
        + [("laplace-chain", i, False) for i in range(2)]
        + [("image-corpus", 0, False)]
    )
    assert all(len(csv) == 64 for _, _, csv, _ in rows)
