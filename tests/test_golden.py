"""Pinned golden CSV output of ``spd-bench`` for small seeded runs.

Each case runs the CLI and compares its CSV with a committed fixture in
``tests/golden/``: every field exactly, except ``utility``, which must agree
at relative tolerance 1e-12.  A refactor that changes how a release is
computed but not what it releases passes; a change of numbers (an RNG
stream, a sensitivity formula) fails until the fixture is deliberately
rewritten.

The image CSVs depend on the descriptors only through each class's size
and radius bound (the utility ``||z - c||^2`` does not move with the center
``c``), so ``descriptor_mixed_classes.txt`` also pins the ``spd-bench
descriptor`` output for three images of the mixed corpus, and
``privatize.txt`` pins the ``spd-bench privatize`` output of every
mechanism for one 2x2 matrix at a fixed seed.  ``privatize_log.txt`` pins
the ``--output log`` release of each log-chart mechanism for the 2x2
identity at a budget whose matrix export is not representable in float64.
In these three, the lines and the tokens on each line must match exactly,
and each printed matrix at Frobenius-relative tolerance 1e-12.

That tolerance is the contract: output bytes are reproducible per machine,
numpy build and BLAS kernel, and values agree across kernels to the stated
tolerance.  The last digits of ``eigh`` and of the rebuilds after it depend
on the kernel (an OpenBLAS ``OPENBLAS_CORETYPE``, numpy's
``NPY_DISABLE_CPU_FEATURES`` dispatch); the measured spread is 3.8e-16
relative.  ``tests/test_portability.py`` reruns this module under other
kernels.

Rewrite fixtures with ``python tests/test_golden.py [case ...]`` from the
repository root (with ``src`` on ``PYTHONPATH``); it rewrites only the named
cases, or all of them when none is named.  Note the reason next to the
change.
"""

import contextlib
import io
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
    "tangent_analytic_resample": _SYNTHETIC
    + ["--mechanism", "tangent_analytic", "--eps", "0.1,2.0", "--delta", "1e-6", "--trials", "3",
       "--resample-data", "--threads", "8"],
    "extrinsic_analytic": _SYNTHETIC
    + ["--mechanism", "extrinsic_analytic", "--eps", "0.1,2.0", "--delta", "1e-6", "--trials", "3"],
    "riemannian_laplace": _SYNTHETIC
    + ["--mechanism", "riemannian_laplace", "--eps", "0.1,0.5", "--delta", "1e-6", "--trials", "2",
       "--burn-in", "200"],
    "image_tangent_analytic": ["image-bench", "--mechanism", "tangent_analytic", "--eps", "0.9",
                               "--delta", "1e-6", "--trials", "2", "--seed", "9"],
    "image_mixed_classes": ["image-bench", "--mechanism", "tangent_analytic", "--eps", "0.9,2.0",
                            "--delta", "1e-6", "--trials", "2", "--seed", "17"],
}


def _hashed_pixels(i: int, cls: int, shape: tuple[int, ...]) -> np.ndarray:
    """Intensities in [0, 1] from an integer hash of (image, class, pixel),
    so a corpus does not depend on any random number generator."""
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    h = (i * 7919 + idx * 104729 + cls * 15485863) % 2**20
    return (((h * 2654435761) % 2**32) >> 24) / 255.0


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


def write_mixed_corpus(root: Path) -> None:
    """An RGB class of 7x5 PPM images, and a gray class whose PGM images
    switch between 8x8 and 6x11 in runs of uneven length and which holds
    one unparseable file (skipped with a warning)."""
    rgb_dir, gray_dir = root / "a_rgb", root / "b_gray"
    rgb_dir.mkdir(parents=True)
    gray_dir.mkdir()
    for i in range(40):
        save_pnm(RasterImage(_hashed_pixels(i, 0, (7, 5, 3))), rgb_dir / f"{i:03d}.ppm")
    for i in range(90):
        shape = (8, 8) if (i // 7 + i // 23) % 2 == 0 else (6, 11)
        save_pnm(RasterImage(_hashed_pixels(i, 1, shape)), gray_dir / f"{i:03d}.pgm")
    (gray_dir / "045_broken.pgm").write_bytes(b"P5\n8 8\n255\n" + bytes(10))


CORPORA = {
    "image_tangent_analytic": write_image_corpus,
    "image_mixed_classes": write_mixed_corpus,
}

# images of the mixed corpus whose descriptors are pinned: RGB, gray 8x8, gray 6x11
DESCRIPTOR_IMAGES = ("a_rgb/000.ppm", "b_gray/000.pgm", "b_gray/010.pgm")
DESCRIPTOR_CASE = "descriptor_mixed_classes"
DESCRIPTOR_RTOL = 1e-12

PRIVATIZE_CASE = "privatize"
PRIVATIZE_RTOL = 1e-12
PRIVATIZE_MATRIX = "2.0 0.3\n0.3 1.5\n"
PRIVATIZE_ARGS = ["--eps", "0.5", "--delta", "1e-6", "--n", "100", "--r", "1", "--seed", "3",
                  "--burn-in", "2000"]
PRIVATIZE_MECHANISMS = ("tangent_classical", "tangent_analytic", "extrinsic_analytic",
                        "riemannian_laplace")

PRIVATIZE_LOG_CASE = "privatize_log"
PRIVATIZE_LOG_MATRIX = "1 0\n0 1\n"
PRIVATIZE_LOG_ARGS = ["--n", "1", "--r", "0.25", "--eps", "0.01", "--delta", "1e-6",
                      "--output", "log"]
PRIVATIZE_LOG_MECHANISMS = ("tangent_classical", "tangent_analytic", "riemannian_laplace")


def run_case(name: str, workdir: Path) -> str:
    argv = list(CASES[name])
    if argv[0] == "image-bench":
        corpus = workdir / f"corpus_{name}"
        if not corpus.exists():
            CORPORA[name](corpus)
        argv += ["--images", str(corpus)]
    out = workdir / f"{name}.csv"
    assert main(argv + ["--out-csv", str(out)]) == 0
    return out.read_text()


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue().strip()


def run_descriptor_case(workdir: Path) -> str:
    """``spd-bench descriptor`` output for each of DESCRIPTOR_IMAGES, one
    blank line between matrices."""
    corpus = workdir / "corpus_image_mixed_classes"
    if not corpus.exists():
        write_mixed_corpus(corpus)
    blocks = [_stdout(["descriptor", "--image", str(corpus / rel)]) for rel in DESCRIPTOR_IMAGES]
    return "\n\n".join(blocks) + "\n"


def run_privatize_case(
    workdir: Path,
    text: str = PRIVATIZE_MATRIX,
    args: list[str] = PRIVATIZE_ARGS,
    mechanisms: tuple[str, ...] = PRIVATIZE_MECHANISMS,
) -> str:
    """``spd-bench privatize`` output of the matrix ``text`` with ``args``
    for each of ``mechanisms``, each matrix after a ``# mechanism`` line."""
    matrix = workdir / "privatize_matrix.txt"
    matrix.write_text(text)
    argv = ["privatize", "--matrix", str(matrix)] + args
    blocks = [f"# {m}\n" + _stdout(argv + ["--mechanism", m]) for m in mechanisms]
    return "\n\n".join(blocks) + "\n"


def run_privatize_log_case(workdir: Path) -> str:
    return run_privatize_case(
        workdir, PRIVATIZE_LOG_MATRIX, PRIVATIZE_LOG_ARGS, PRIVATIZE_LOG_MECHANISMS
    )


def assert_matrices_match(got: str, want: str, rtol: float) -> None:
    """``got`` has the lines of ``want`` and the tokens on each line; its
    ``#`` lines are equal and each matrix (a run of number lines) agrees in
    Frobenius norm at relative tolerance ``rtol``."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    rows: list[tuple[list[str], list[str]]] = []
    for got_line, want_line in zip(got_lines + [""], want_lines + [""]):
        got_tokens, want_tokens = got_line.split(), want_line.split()
        assert len(got_tokens) == len(want_tokens), want_line
        if want_tokens and not want_line.startswith("#"):
            rows.append((got_tokens, want_tokens))
            continue
        assert got_line == want_line
        if rows:
            g, w = (np.array([[float(v) for v in r[i]] for r in rows]) for i in (0, 1))
            assert np.linalg.norm(g - w) <= rtol * np.linalg.norm(w), want_line
            rows = []


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


def test_descriptors_match_golden(workdir):
    want = (GOLDEN_DIR / f"{DESCRIPTOR_CASE}.txt").read_text()
    assert_matrices_match(run_descriptor_case(workdir), want, DESCRIPTOR_RTOL)


def test_privatize_matches_golden(workdir):
    want = (GOLDEN_DIR / f"{PRIVATIZE_CASE}.txt").read_text()
    assert_matrices_match(run_privatize_case(workdir), want, PRIVATIZE_RTOL)


def test_privatize_log_matches_golden(workdir):
    want = (GOLDEN_DIR / f"{PRIVATIZE_LOG_CASE}.txt").read_text()
    assert_matrices_match(run_privatize_log_case(workdir), want, PRIVATIZE_RTOL)


if __name__ == "__main__":
    import tempfile

    known = sorted(CASES) + [DESCRIPTOR_CASE, PRIVATIZE_CASE, PRIVATIZE_LOG_CASE]
    cases = sys.argv[1:] or known
    unknown = sorted(set(cases) - set(known))
    if unknown:
        sys.exit(f"unknown case(s) {', '.join(unknown)}; known: {', '.join(known)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            if case == DESCRIPTOR_CASE:
                path = GOLDEN_DIR / f"{case}.txt"
                path.write_text(run_descriptor_case(Path(tmp)))
            elif case == PRIVATIZE_CASE:
                path = GOLDEN_DIR / f"{case}.txt"
                path.write_text(run_privatize_case(Path(tmp)))
            elif case == PRIVATIZE_LOG_CASE:
                path = GOLDEN_DIR / f"{case}.txt"
                path.write_text(run_privatize_log_case(Path(tmp)))
            else:
                path = GOLDEN_DIR / f"{case}.csv"
                path.write_text(run_case(case, Path(tmp)))
            print(f"wrote {path}", file=sys.stderr)
