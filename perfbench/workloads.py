"""Workload definitions: the CLI calls that make up one pass, and the
seeded image corpus that the image workload reads.

Every input is a pure function of the workload seed.  The program sees only
these inputs: the ``spd-bench`` argument lists built here and, for
``image-corpus``, the PGM/PPM files written by :func:`write_corpus`.

Why each workload exists (which layer it stresses, and which it bypasses):

* ``gaussian-grid``: many cheap Gaussian releases on a fixed dataset, so
  per-release work in ``mechanisms`` and ``geometry`` dominates; it also
  writes the most CSV rows and SVG output.
* ``fresh-data``: every trial draws 500 matrices and takes their Fréchet
  mean, so ``sampling`` and batched ``geometry`` dominate and the release
  is a small share.
* ``laplace-chain``: the Python Metropolis loop of the Riemannian Laplace
  baseline dominates, run through the ``harness`` thread pool.
* ``image-corpus``: PNM loading, feature extraction and covariance
  descriptors (``descriptors``) dominate; ``mechanisms`` does almost nothing.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("gaussian-grid", "fresh-data", "laplace-chain", "image-corpus")
SCALES = ("full", "tiny")

GRID_MECHANISMS = ("tangent_classical", "tangent_analytic", "extrinsic_analytic")
DELTA = 1e-6
RADIUS = 0.25

# Image corpus layout: grayscale classes of GRAY_SIZE x GRAY_SIZE images and
# one RGB class of larger images.  Classes of a few hundred images keep the
# tangent release inside the float64-representable SPD cone at eps = 0.5
# with the default eta; much smaller classes make releases fail.
GRAY_SIZE = 28
IMAGE_ETA = 1e-6


@dataclass(frozen=True)
class CorpusClass:
    name: str
    channels: int
    size: int
    count: int


@dataclass(frozen=True)
class Call:
    """One ``spd-bench`` invocation and everything needed to check it."""

    command: str  # "synthetic-bench" | "image-bench"
    mechanism: str
    k: int  # 0 for image-bench: k comes from each class's channel count
    eps: tuple[float, ...]
    trials: int
    seed: int
    n: int
    threads: int
    burn_in: int
    resample_data: bool
    out_csv: str
    out_plot: str | None
    images: str | None = None
    classes: tuple[CorpusClass, ...] = ()

    def argv(self) -> list[str]:
        args = [
            self.command,
            "--mechanism", self.mechanism,
            "--eps", ",".join(repr(e) for e in self.eps),
            "--delta", repr(DELTA),
            "--trials", str(self.trials),
            "--seed", str(self.seed),
            "--threads", str(self.threads),
            "--out-csv", self.out_csv,
        ]
        if self.command == "synthetic-bench":
            args += [
                "--k", str(self.k),
                "--n", str(self.n),
                "--r", repr(RADIUS),
                "--burn-in", str(self.burn_in),
            ]
            if self.resample_data:
                args.append("--resample-data")
        else:
            args += ["--images", self.images, "--eta", repr(IMAGE_ETA)]
        if self.out_plot:
            args += ["--out-plot", self.out_plot]
        return args

    def releases(self) -> int:
        groups = len(self.classes) if self.command == "image-bench" else 1
        return groups * len(self.eps) * self.trials


def derive_seed(seed: int, *path: object) -> int:
    """A 32-bit seed keyed by the workload seed and ``path``."""
    digest = hashlib.sha256(repr((int(seed),) + path).encode()).digest()
    return int.from_bytes(digest[:4], "little")


# Sizes per scale.  "full" is what the benchmark measures; "tiny" is the
# self-test's smoke size, which exercises the same code paths in seconds.
_SIZES = {
    "full": {
        "grid_trials": 120,
        "grid_n": 500,
        "fresh_trials": 4,
        "fresh_n": 500,
        "laplace_trials": 2,
        "laplace_burn_in": 10000,
        "image_trials": 4,
        "gray_classes": 3,
        "gray_count": 400,
        "rgb_size": 40,
        "rgb_count": 500,
    },
    "tiny": {
        "grid_trials": 3,
        "grid_n": 100,
        "fresh_trials": 1,
        "fresh_n": 50,
        "laplace_trials": 2,
        "laplace_burn_in": 500,
        "image_trials": 2,
        "gray_classes": 1,
        "gray_count": 400,
        "rgb_size": 40,
        "rgb_count": 500,
    },
}


def corpus_classes(scale: str) -> tuple[CorpusClass, ...]:
    s = _SIZES[scale]
    gray = tuple(
        CorpusClass(f"gray{i}", 1, GRAY_SIZE, s["gray_count"])
        for i in range(s["gray_classes"])
    )
    return gray + (CorpusClass("rgb", 3, s["rgb_size"], s["rgb_count"]),)


def calls(workload: str, seed: int, workdir: Path, scale: str = "full") -> list[Call]:
    """The CLI calls of one pass of ``workload``, in the order they run."""
    s = _SIZES[scale]
    out: list[Call] = []

    def add(**kw) -> None:
        i = len(out)
        plot = str(workdir / f"call{i}.svg") if kw.pop("plot", False) else None
        out.append(
            Call(
                seed=derive_seed(seed, workload, i),
                out_csv=str(workdir / f"call{i}.csv"),
                out_plot=plot,
                **kw,
            )
        )

    if workload == "gaussian-grid":
        for k in (2, 10, 30):
            for mechanism in GRID_MECHANISMS:
                add(command="synthetic-bench", mechanism=mechanism, k=k,
                    eps=(0.1, 0.2, 0.3), trials=s["grid_trials"], n=s["grid_n"],
                    threads=1, burn_in=1, resample_data=False, plot=True)
    elif workload == "fresh-data":
        for k in (10, 30):
            add(command="synthetic-bench", mechanism="tangent_analytic", k=k,
                eps=(0.2,), trials=s["fresh_trials"], n=s["fresh_n"],
                threads=1, burn_in=1, resample_data=True)
    elif workload == "laplace-chain":
        for k in (10, 30):
            add(command="synthetic-bench", mechanism="riemannian_laplace", k=k,
                eps=(0.2,), trials=s["laplace_trials"], n=500,
                threads=2, burn_in=s["laplace_burn_in"], resample_data=False)
    elif workload == "image-corpus":
        add(command="image-bench", mechanism="tangent_analytic", k=0,
            eps=(0.5,), trials=s["image_trials"], n=0, threads=1, burn_in=1,
            resample_data=False, images=str(workdir / "corpus"),
            classes=corpus_classes(scale))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def _write_pnm(path: Path, pixels) -> int:
    """Write 8-bit samples as binary PGM (h x w) or PPM (h x w x 3) with
    maxval 255; returns the file size in bytes."""
    magic = b"P5" if pixels.ndim == 2 else b"P6"
    h, w = pixels.shape[:2]
    data = b"%s\n%d %d\n255\n" % (magic, w, h) + pixels.astype("uint8").tobytes()
    path.write_bytes(data)
    return len(data)


def write_corpus(root: Path, seed: int, scale: str = "full") -> int:
    """Write the seeded image corpus under ``root``; returns bytes written.

    Each class has its own stripe pattern plus independent uniform noise per
    image, so class means differ and every descriptor is well conditioned.
    """
    import numpy as np

    rng = np.random.default_rng(derive_seed(seed, "corpus"))
    total = 0
    for index, cls in enumerate(corpus_classes(scale)):
        class_dir = root / cls.name
        class_dir.mkdir(parents=True)
        yy, xx = np.mgrid[0 : cls.size, 0 : cls.size] / cls.size
        angle = rng.uniform(0.0, math.pi)
        stripes = np.sin(2 * math.pi * (1 + index) * (xx * math.cos(angle) + yy * math.sin(angle)))
        base = 0.5 + 0.25 * stripes
        shape = (cls.size, cls.size) if cls.channels == 1 else (cls.size, cls.size, 3)
        if cls.channels == 3:
            base = base[:, :, None]
        ext = "pgm" if cls.channels == 1 else "ppm"
        for i in range(cls.count):
            pixels = np.clip(base + rng.uniform(-0.25, 0.25, shape), 0.0, 1.0)
            total += _write_pnm(class_dir / f"{i:04d}.{ext}", np.rint(pixels * 255.0))
    return total
