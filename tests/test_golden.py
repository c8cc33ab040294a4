"""Pinned golden CSV output of ``spd-bench`` for small seeded runs.

Each case runs the CLI and compares its CSV with a committed fixture in
``tests/golden/``: every field exactly, except ``utility``, which must agree
at relative tolerance 1e-12.  A refactor that changes how a release is
computed but not what it releases passes; a change of numbers (an RNG
stream, a sensitivity formula) fails until the fixture is deliberately
rewritten.

Rewrite fixtures with ``python tests/test_golden.py [case ...]`` from the
repository root (with ``src`` on ``PYTHONPATH``); it rewrites only the named
cases, or all of them when none is named.  Note the reason next to the
change.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from spdprivacy.cli import main
from spdprivacy.descriptors import RasterImage, save_pnm

GOLDEN_DIR = Path(__file__).parent / "golden"
UTILITY_RTOL = 1e-12

_SYNTHETIC = ["synthetic-bench", "--k", "3", "--n", "40", "--r", "0.25", "--seed", "123"]

CASES = {
    "tangent_classical": _SYNTHETIC
    + ["--mechanism", "tangent_classical", "--eps", "0.1,0.5", "--delta", "1e-6,1e-8", "--trials", "3"],
    "tangent_analytic": _SYNTHETIC
    + ["--mechanism", "tangent_analytic", "--eps", "0.1,2.0", "--delta", "1e-6", "--trials", "3"],
    "tangent_analytic_measured_radius": _SYNTHETIC
    + ["--mechanism", "tangent_analytic", "--eps", "0.3", "--delta", "1e-6", "--trials", "3",
       "--measured-radius"],
    "extrinsic_analytic": _SYNTHETIC
    + ["--mechanism", "extrinsic_analytic", "--eps", "0.1,2.0", "--delta", "1e-6", "--trials", "3"],
    "riemannian_laplace": _SYNTHETIC
    + ["--mechanism", "riemannian_laplace", "--eps", "0.1,0.5", "--delta", "1e-6", "--trials", "2",
       "--burn-in", "200"],
    "image_tangent_analytic": ["image-bench", "--mechanism", "tangent_analytic", "--eps", "0.9",
                               "--delta", "1e-6", "--trials", "2", "--seed", "9"],
}


def write_image_corpus(root: Path) -> None:
    """Two gray classes of 8x8 PGM images with pixel values from an integer
    hash, so the corpus does not depend on any random number generator."""
    y, x = np.mgrid[0:8, 0:8]
    for cls in range(2):
        class_dir = root / f"class{cls}"
        class_dir.mkdir(parents=True)
        for i in range(300):
            h = (i * 7919 + y * 104729 + x * 1299709 + cls * 15485863) % 2**20
            pixels = ((h * 2654435761) % 2**32) >> 24
            save_pnm(RasterImage(pixels / 255.0), class_dir / f"{i:03d}.pgm")


def run_case(name: str, workdir: Path) -> str:
    argv = list(CASES[name])
    if argv[0] == "image-bench":
        corpus = workdir / "corpus"
        if not corpus.exists():
            write_image_corpus(corpus)
        argv += ["--images", str(corpus)]
    out = workdir / f"{name}.csv"
    assert main(argv + ["--out-csv", str(out)]) == 0
    return out.read_text()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, workdir):
    want = (GOLDEN_DIR / f"{name}.csv").read_text().splitlines()
    got = run_case(name, workdir).splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    utility = want[0].split(",").index("utility")
    for got_line, want_line in zip(got[1:], want[1:]):
        got_fields, want_fields = got_line.split(","), want_line.split(",")
        got_u, want_u = float(got_fields.pop(utility)), float(want_fields.pop(utility))
        assert got_fields == want_fields
        assert got_u == pytest.approx(want_u, rel=UTILITY_RTOL, abs=0.0), want_line


if __name__ == "__main__":
    import tempfile

    cases = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(cases) - set(CASES))
    if unknown:
        sys.exit(f"unknown case(s) {', '.join(unknown)}; known: {', '.join(sorted(CASES))}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            (GOLDEN_DIR / f"{case}.csv").write_text(run_case(case, Path(tmp)))
            print(f"wrote {GOLDEN_DIR / case}.csv", file=sys.stderr)
