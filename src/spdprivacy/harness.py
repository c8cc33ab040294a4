"""Benchmark harness: privacy-utility experiments on synthetic and image data.

An :class:`ExperimentSpec` pins everything an experiment depends on,
including the seed; the emitted records (and hence the CSV) are a pure
function of the spec.  Trials inside each (epsilon, delta) cell run on
independent RNG substreams keyed by (seed, cell, trial), so thread count
does not affect results, and records are sorted canonically before
emission.

Releases run in the coordinates the mechanism adds noise in (the log chart,
or the matrix entries for the extrinsic baseline): each group's summary is
a d-vector ``c`` computed once, each release is a d-vector ``z``, and the
utility is ``||z - c||^2``, so no SPD matrix is built per trial.

Wall-clock timing of the privatization call is optional (``record_timing``)
because real timings are not reproducible; with timing off the
``wall_time_ns`` column is zero and the CSV is byte-stable across runs.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .descriptors import (
    BLOCK_DOUBLES,
    DescriptorParams,
    descriptor_radius_bound,
    descriptor_stack,
    load_pnm,
)
from .errors import DomainError
from .geometry import expm_stack, logm_stack, vecd_stack
from .mechanisms import (
    PrivacyBudget,
    Sensitivity,
    acceptance_warning,
    calibrate_analytic,
    calibrate_classical,
    gaussian_release,
    laplace_release,
    sensitivity_extrinsic,
    sensitivity_frechet_le,
)
from .sampling import RngState, sample_synthetic_logs

log = logging.getLogger(__name__)

MECHANISMS = (
    "tangent_classical",
    "tangent_analytic",
    "extrinsic_analytic",
    "riemannian_laplace",
)

CSV_HEADER = "mechanism,k,epsilon,delta,trial,utility,wall_time_ns,acceptance_ratio"

# Substream tags so dataset and noise streams never collide.
_DATA_STREAM = 0
_NOISE_STREAM = 1


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark configuration; every field participates in determinism."""

    kind: str  # "synthetic" | "image"
    mechanism: str
    epsilon_grid: tuple[float, ...]
    delta_grid: tuple[float, ...]
    n: int = 500
    r: float = 0.25
    k: int = 2
    trials: int = 10
    seed: int = 0
    burn_in: int = 50000
    image_dir: str | None = None
    eta: float = 1e-6
    resample_data: bool = False
    measured_radius: bool = False
    record_timing: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "image"):
            raise DomainError(f"kind must be 'synthetic' or 'image', got {self.kind!r}")
        if self.mechanism not in MECHANISMS:
            raise DomainError(
                f"mechanism must be one of {MECHANISMS}, got {self.mechanism!r}"
            )
        if not self.epsilon_grid or not self.delta_grid:
            raise DomainError("epsilon and delta grids must be nonempty")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if self.kind == "synthetic" and self.k < 2:
            raise DomainError("synthetic experiments require k >= 2")
        if self.kind == "image" and self.image_dir is None:
            raise DomainError("image experiments require image_dir")
        if self.burn_in < 1:
            raise DomainError("burn_in must be >= 1")
        object.__setattr__(
            self, "epsilon_grid", tuple(float(e) for e in self.epsilon_grid)
        )
        object.__setattr__(
            self, "delta_grid", tuple(float(d) for d in self.delta_grid)
        )


@dataclass(frozen=True)
class TrialRecord:
    """One measured outcome row."""

    mechanism: str
    k: int
    epsilon: float
    delta: float
    trial: int
    utility: float
    wall_time_ns: int = 0
    acceptance_ratio: float | None = None

    def sort_key(self) -> tuple:
        return (self.mechanism, self.k, self.epsilon, self.delta, self.trial)


@dataclass(frozen=True)
class _Group:
    """One summary to privatize: the whole dataset (synthetic) or a class.

    ``center`` is the summary in the coordinates the mechanism releases in
    (see :func:`_center`).
    """

    center: np.ndarray
    n: int
    k: int
    radius: float


def _noise_scale(
    mechanism: str, epsilon: float, delta: float, sens: Sensitivity
) -> float:
    if mechanism == "tangent_classical":
        return calibrate_classical(sens, PrivacyBudget(epsilon, delta))
    if mechanism in ("tangent_analytic", "extrinsic_analytic"):
        return calibrate_analytic(sens, PrivacyBudget(epsilon, delta))
    if mechanism == "riemannian_laplace":
        # Pure-DP Laplace scale; delta plays no role.
        return sens.value / epsilon
    raise DomainError(f"unknown mechanism {mechanism!r}")


def _sensitivity(mechanism: str, n: int, radius: float) -> Sensitivity:
    if mechanism == "extrinsic_analytic":
        return sensitivity_extrinsic(n, radius)
    return sensitivity_frechet_le(n, radius)


def _center(mechanism: str, logs: np.ndarray) -> np.ndarray:
    """Release center of the Fréchet mean of a stack of log-matrices: its
    log-chart vector, or for the extrinsic baseline, vecd of the mean itself."""
    mean_log = logs.mean(axis=0)
    if mechanism == "extrinsic_analytic":
        return vecd_stack(expm_stack(mean_log))
    return vecd_stack(mean_log)


def _privatize(
    spec: ExperimentSpec, rng: RngState, center: np.ndarray, sigma: float
) -> tuple[float, int, float | None]:
    """Run one release around ``center``; returns (utility, wall_time_ns,
    acceptance).  The utility is the squared distance ||z - center||^2 in
    the release coordinates."""
    start = time.perf_counter_ns() if spec.record_timing else 0
    acceptance = None
    if spec.mechanism == "riemannian_laplace":
        z, acceptance = laplace_release(rng, center, sigma, burn_in=spec.burn_in)
    else:
        z = gaussian_release(rng, center, sigma)
    elapsed = time.perf_counter_ns() - start if spec.record_timing else 0
    if acceptance is not None:
        warning = acceptance_warning(acceptance)
        if warning:
            log.warning("%s", warning)
    deviation = z - center
    return float(deviation @ deviation), elapsed, acceptance


def _run_cells(
    spec: ExperimentSpec, base: RngState, groups: list[_Group], threads: int
) -> list[TrialRecord]:
    """Fan out over (group, epsilon, delta) cells and trials; the noise
    scale is calibrated once per cell."""
    cells = [
        (
            group,
            eps,
            delta,
            _noise_scale(
                spec.mechanism,
                eps,
                delta,
                _sensitivity(spec.mechanism, group.n, group.radius),
            ),
        )
        for group in groups
        for eps in spec.epsilon_grid
        for delta in spec.delta_grid
    ]

    def one_trial(args: tuple[int, int]) -> TrialRecord:
        cell_index, trial = args
        group, eps, delta, sigma = cells[cell_index]
        rng = base.substream(_NOISE_STREAM, cell_index, trial)
        if spec.kind == "synthetic" and spec.resample_data:
            data_rng = base.substream(_DATA_STREAM, cell_index, trial)
            logs = sample_synthetic_logs(data_rng, spec.k, spec.r, spec.n)
            center = _center(spec.mechanism, logs)
        else:
            center = group.center
        utility, elapsed, acceptance = _privatize(spec, rng, center, sigma)
        return TrialRecord(
            mechanism=spec.mechanism,
            k=group.k,
            epsilon=eps,
            delta=delta,
            trial=trial,
            utility=utility,
            wall_time_ns=elapsed,
            acceptance_ratio=acceptance,
        )

    tasks = [(ci, t) for ci in range(len(cells)) for t in range(spec.trials)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(one_trial, tasks))
    else:
        records = [one_trial(task) for task in tasks]
    records.sort(key=TrialRecord.sort_key)
    return records


def run_synthetic(spec: ExperimentSpec, threads: int = 1) -> list[TrialRecord]:
    """Run the synthetic-data experiment described by ``spec``.

    The dataset is drawn once per (k, r, seed) and shared by all cells
    unless ``resample_data`` asks for a fresh dataset per trial.  The ball
    radius defaults to the generator's guarantee sqrt(k) * r; with
    ``measured_radius`` the observed radius is used instead.
    """
    if spec.kind != "synthetic":
        raise DomainError("run_synthetic requires a synthetic spec")
    base = RngState(spec.seed)
    logs = sample_synthetic_logs(base.substream(_DATA_STREAM), spec.k, spec.r, spec.n)
    radius = math.sqrt(spec.k) * spec.r
    if spec.measured_radius:
        radius = float(np.max(np.linalg.norm(logs, axis=(1, 2))))
    group = _Group(
        center=_center(spec.mechanism, logs), n=spec.n, k=spec.k, radius=radius
    )
    return _run_cells(spec, base, [group], threads)


def _image_classes(root: Path) -> list[tuple[str, list[Path]]]:
    subdirs = sorted(p for p in root.iterdir() if p.is_dir())
    if subdirs:
        return [
            (d.name, sorted(p for p in d.iterdir() if p.is_file())) for d in subdirs
        ]
    return [("", sorted(p for p in root.iterdir() if p.is_file()))]


def _class_images(name: str, files: list[Path]):
    """Intensities of a class's parseable images, decoded one at a time in
    file order; unparseable files are skipped with a warning."""
    channels = None
    for path in files:
        try:
            image = load_pnm(path)
        except DomainError as exc:
            log.warning("skipping %s: %s", path, exc)
            continue
        if channels is None:
            channels = image.channels
        elif image.channels != channels:
            raise DomainError(
                f"class {name!r} mixes gray and RGB images; descriptors "
                "would have different dimensions"
            )
        yield image.intensities


def _class_descriptors(
    name: str, files: list[Path], params: DescriptorParams
) -> np.ndarray:
    """Descriptors (n, k, k) of a class's parseable images, in file order.

    Each run of same-size images goes to :func:`descriptor_stack` in blocks
    holding at most ``BLOCK_DOUBLES`` feature values (at least one image),
    so memory does not grow with the class; only the covariances are kept.
    """
    blocks = []
    for (h, w, c), run in itertools.groupby(_class_images(name, files), key=np.shape):
        per_block = max(1, BLOCK_DOUBLES // (h * w * (8 + c)))
        while chunk := list(itertools.islice(run, per_block)):
            blocks.append(descriptor_stack(np.stack(chunk), params))
    if not blocks:
        raise DomainError(f"class {name!r} contains no parseable images")
    return np.concatenate(blocks)


def run_image(spec: ExperimentSpec, threads: int = 1) -> list[TrialRecord]:
    """Run the covariance-descriptor experiment over a directory of images.

    One subdirectory per class, or a flat directory treated as one class.
    Unparseable files are skipped with a warning; an empty class is an
    error.  Sensitivity uses the analytic radius bound of the descriptor
    pipeline and n = class size.  Positive definiteness of the descriptors
    is checked once per class, by :func:`logm_stack`.
    """
    if spec.kind != "image":
        raise DomainError("run_image requires an image spec")
    root = Path(spec.image_dir)
    if not root.is_dir():
        raise DomainError(f"image_dir {root} is not a directory")
    params = DescriptorParams(eta=spec.eta)
    base = RngState(spec.seed)

    groups = []
    for name, files in _image_classes(root):
        descriptors = _class_descriptors(name, files, params)
        n, k = descriptors.shape[:2]
        groups.append(
            _Group(
                center=_center(spec.mechanism, logm_stack(descriptors)),
                n=n,
                k=k,
                radius=descriptor_radius_bound(k - 8, spec.eta),  # k = 8 + channels
            )
        )
    return _run_cells(spec, base, groups, threads)


def _format_float(x: float) -> str:
    return repr(float(x))


def render_csv(records: list[TrialRecord]) -> str:
    """Records as CSV text with the canonical header; acceptance_ratio is
    empty for mechanisms without a chain."""
    if not records:
        raise DomainError("no records to emit")
    lines = [CSV_HEADER]
    for rec in records:
        acceptance = (
            "" if rec.acceptance_ratio is None else _format_float(rec.acceptance_ratio)
        )
        lines.append(
            ",".join(
                [
                    rec.mechanism,
                    str(rec.k),
                    _format_float(rec.epsilon),
                    _format_float(rec.delta),
                    str(rec.trial),
                    _format_float(rec.utility),
                    str(rec.wall_time_ns),
                    acceptance,
                ]
            )
        )
    return "\n".join(lines) + "\n"


def emit_csv(records: list[TrialRecord], path: str | Path) -> None:
    """Write :func:`render_csv` output to ``path``."""
    Path(path).write_text(render_csv(records))
