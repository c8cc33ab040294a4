"""Benchmark harness: privacy-utility experiments on synthetic and image data.

An :class:`ExperimentSpec` pins everything an experiment depends on,
including the seed; the emitted records (and hence the CSV) are a pure
function of the spec.  Each (epsilon, delta) cell draws its noise from its
own RNG substream, and each task the thread pool runs (a Laplace chain or
a resampled dataset) from one keyed by (seed, cell, trial), so thread count
does not affect results, and records are sorted canonically before
emission.

Releases run in the coordinates the mechanism adds noise in (the log chart,
or the matrix entries for the extrinsic baseline): each group's summary is
a d-vector ``c`` computed once, each release is a d-vector ``z``, and the
utility is ``||z - c||^2``, so no SPD matrix is built per trial.  A
synthetic dataset and an image class alike reach their summary as blocks
of log-matrices that ``geometry._mean_log`` folds, so neither is held whole:
``sampling._synthetic_blocks`` draws a dataset's blocks, and
``descriptors._class_logs`` reads a class's files into its blocks.

A Gaussian cell draws the noise of all its trials as one (trials, d)
block from its substream, row t for trial t, so trial t's noise does not
depend on the number of trials; the thread pool runs Laplace chains and
resampled datasets.  One block per distinct d is allocated per call and
reused by every Gaussian cell of that d: the cell's normals fill it (the
same stream as a fresh ``standard_normal((trials, d))`` draw), and it is
overwritten in place by the release and then by the deviation z - c,
whose rows are scored by one batched dot, so a cell allocates no
(trials, d) temporaries.

Wall-clock timing of the privatization call is optional (``record_timing``)
because real timings are not reproducible; with timing off the
``wall_time_ns`` column is zero and the CSV is byte-stable across runs.  A
Gaussian trial records its cell's release time divided by the number of
trials, rounded up.
"""

from __future__ import annotations

import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .descriptors import DescriptorParams, _class_logs, descriptor_radius_bound
from .errors import DimensionError, DomainError, NumericalError, _checked_int
from .geometry import MAX_DIM, _mean_log, expm_stack, vecd_stack
from .mechanisms import (
    MECHANISMS,
    Mechanism,
    acceptance_warning,
    gaussian_release_block,
    laplace_release,
)
from .sampling import _MAX_SEED, RngState, _check_radius, _synthetic_blocks

log = logging.getLogger(__name__)

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
    n: int | None = None  # synthetic only: 500
    r: float | None = None  # synthetic only: 0.25
    k: int | None = None  # synthetic only: 2
    trials: int = 10
    seed: int = 0
    burn_in: int = 50000
    image_dir: str | None = None
    eta: float = 1e-6
    resample_data: bool = False
    record_timing: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "image"):
            raise DomainError(f"kind must be 'synthetic' or 'image', got {self.kind!r}")
        if self.mechanism not in MECHANISMS:
            raise DomainError(
                f"mechanism must be one of {tuple(MECHANISMS)}, got {self.mechanism!r}"
            )
        if not self.epsilon_grid or not self.delta_grid:
            raise DomainError("epsilon and delta grids must be nonempty")
        for name in ("trials", "burn_in"):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name))
        object.__setattr__(self, "seed", _checked_int(self.seed, "seed", 0, _MAX_SEED))
        if self.kind == "synthetic":
            for name, default in (("n", 500), ("r", 0.25), ("k", 2)):
                if getattr(self, name) is None:
                    object.__setattr__(self, name, default)
            object.__setattr__(self, "n", _checked_int(self.n, "n"))
            object.__setattr__(self, "k", _checked_int(self.k, "k", error=DimensionError))
            if not 2 <= self.k <= MAX_DIM:
                raise DomainError(f"synthetic experiments need 2 <= k <= {MAX_DIM}, got {self.k}")
            _check_radius(self.r)
        elif self.image_dir is None:
            raise DomainError("image experiments require image_dir")
        elif self.resample_data:  # a class has no other draw
            raise DomainError("image experiments take no resample_data")
        elif any(v is not None for v in (self.n, self.r, self.k)):
            # a class's n is its size, its radius the descriptors' bound, k 8 + channels
            raise DomainError("image experiments take no n, r or k: each class sets its own")
        for name in ("epsilon_grid", "delta_grid"):
            grid = tuple(float(v) for v in getattr(self, name))
            if len(set(grid)) != len(grid):
                # two cells with one sort key: their rows could not be told apart
                raise DomainError(f"{name} has duplicate values: {grid}")
            object.__setattr__(self, name, grid)


class TrialRecord(NamedTuple):
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
        return self[:5]  # (mechanism, k, epsilon, delta, trial)


@dataclass(frozen=True)
class _Group:
    """One summary to privatize: the whole dataset (synthetic) or a class.

    ``center`` is the summary in the coordinates the mechanism releases in
    (see :func:`_center`), or None when every trial draws its own dataset.
    """

    center: np.ndarray | None
    n: int
    k: int
    radius: float


def _center(mechanism: Mechanism, mean_log: np.ndarray) -> np.ndarray:
    """Release center of the Fréchet mean exp(mean_log): its log-chart
    vector, or outside the log chart, vecd of the mean itself."""
    return vecd_stack(mean_log if mechanism.log_chart else expm_stack(mean_log))


def _row_dots(rows: np.ndarray) -> np.ndarray:
    """``row @ row`` of each row of a (trials, d) block, bit for bit: the
    matmul of each (1, d) row by its (d, 1) column runs numpy's dot loop, as
    the product of two vectors does, so a trial's utility does not depend on
    how trials are batched (``np.einsum`` sums in another order).  A dot
    that overflows float64 is a :class:`NumericalError`, not a warning."""
    with np.errstate(over="ignore"):
        dots = np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]
    if not np.isfinite(dots).all():
        raise NumericalError("utility overflows float64: the noise scale is too large")
    return dots


def _run_cells(
    spec: ExperimentSpec, base: RngState, groups: list[_Group], threads: int
) -> list[TrialRecord]:
    """Fan out over (group, epsilon, delta) cells and trials; the noise
    scale is calibrated once per cell.

    A Gaussian cell releases all its trials at once: row t of the block
    drawn from substream (_NOISE_STREAM, cell) is trial t's noise.  The
    block, one per distinct d, is reused by every Gaussian cell of the call
    and overwritten in place.  A Laplace trial runs its own chain on
    substream (_NOISE_STREAM, cell, t).
    The thread pool runs Laplace chains and resampled datasets, one
    (cell, trial) per task.
    """
    mechanism = MECHANISMS[spec.mechanism]
    cells = [
        (group, eps, delta, mechanism.noise_scale(group.n, group.radius, eps, delta))
        for group in groups
        for eps in spec.epsilon_grid
        for delta in spec.delta_grid
    ]
    tasks = [(ci, t) for ci in range(len(cells)) for t in range(spec.trials)]

    def fan_out(fn) -> list:
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(fn, tasks))
        return [fn(task) for task in tasks]

    def trial_center(task: tuple[int, int]) -> np.ndarray:
        cell_index, trial = task
        if spec.resample_data:
            data_rng = base.substream(_DATA_STREAM, cell_index, trial)
            mean_log, _ = _mean_log(_synthetic_blocks(data_rng, spec.k, spec.r, spec.n))
            return _center(mechanism, mean_log)
        return cells[cell_index][0].center

    def laplace_trial(task: tuple[int, int]) -> tuple[float, int, float]:
        cell_index, trial = task
        rng = base.substream(_NOISE_STREAM, cell_index, trial)
        center = trial_center(task)
        start = time.perf_counter_ns() if spec.record_timing else 0
        z, acceptance = laplace_release(
            rng, center, cells[cell_index][3], burn_in=spec.burn_in
        )
        elapsed = time.perf_counter_ns() - start if spec.record_timing else 0
        if warning := acceptance_warning(acceptance):
            log.warning("%s", warning)
        return float(_row_dots((z - center)[None])[0]), elapsed, acceptance

    blocks: dict[int, np.ndarray] = {}

    def gaussian_cell(cell_index: int, center: np.ndarray) -> list[tuple]:
        """(utility, wall_time_ns, None) of each trial; the cell's release
        time is shared over its trials, rounded up."""
        d = center.shape[-1]
        block = blocks.get(d)
        if block is None:
            block = blocks[d] = np.empty((spec.trials, d))
        start = time.perf_counter_ns() if spec.record_timing else 0
        base.substream(_NOISE_STREAM, cell_index).generator.standard_normal(out=block)
        gaussian_release_block(center, cells[cell_index][3], block, out=block)
        elapsed = time.perf_counter_ns() - start if spec.record_timing else 0
        per_trial = -(-elapsed // spec.trials)
        block -= center
        return [(u, per_trial, None) for u in _row_dots(block).tolist()]

    if mechanism.chain:
        outcomes = fan_out(laplace_trial)
    else:
        if spec.resample_data:
            centers = np.array(fan_out(trial_center)).reshape(len(cells), spec.trials, -1)
        else:
            centers = [group.center for group, *_ in cells]
        outcomes = [o for ci, c in enumerate(centers) for o in gaussian_cell(ci, c)]
    records = [
        TrialRecord(spec.mechanism, cells[ci][0].k, cells[ci][1], cells[ci][2], trial, *outcome)
        for (ci, trial), outcome in zip(tasks, outcomes)
    ]
    records.sort(key=TrialRecord.sort_key)
    return records


def run_synthetic(spec: ExperimentSpec, threads: int = 1) -> list[TrialRecord]:
    """Run the synthetic-data experiment described by ``spec``.

    The dataset is drawn once per (k, r, seed), on its own substream, and
    shared by all cells unless ``resample_data`` asks for a fresh dataset
    per trial; it is drawn exactly when ``resample_data`` is off.  Each
    dataset is streamed block by block into its mean log-matrix; its
    (n, k, k) stack is never built.  The ball radius, and so every noise
    scale, is the generator's public guarantee sqrt(k) * r, never read from
    the data.  ``resample_data`` stays until the benchmark's fresh-data
    workload no longer passes it.
    """
    if spec.kind != "synthetic":
        raise DomainError("run_synthetic requires a synthetic spec")
    threads = _checked_int(threads, "threads")
    base = RngState(spec.seed)
    center = None
    if not spec.resample_data:
        blocks = _synthetic_blocks(base.substream(_DATA_STREAM), spec.k, spec.r, spec.n)
        center = _center(MECHANISMS[spec.mechanism], _mean_log(blocks)[0])
    group = _Group(center=center, n=spec.n, k=spec.k, radius=math.sqrt(spec.k) * spec.r)
    return _run_cells(spec, base, [group], threads)


def _sorted_entries(directory: str | Path, want_dirs: bool) -> list[os.DirEntry]:
    """Subdirectories (or files) of ``directory``, sorted by name; all share
    one parent, so this is the order of their full paths."""
    with os.scandir(directory) as it:
        entries = [e for e in it if (e.is_dir() if want_dirs else e.is_file())]
    return sorted(entries, key=lambda e: e.name)


def _image_classes(root: Path) -> list[tuple[str, list[str]]]:
    """(class name, file paths) per subdirectory of ``root``, or one class
    named "" of the files in ``root`` when it has no subdirectories.  Files
    next to class subdirectories are ignored with a warning."""
    subdirs = _sorted_entries(root, want_dirs=True)
    if subdirs:
        ignored = len(_sorted_entries(root, want_dirs=False))
        if ignored:
            log.warning(
                "ignoring %d top-level file(s) in %s: it has class subdirectories",
                ignored,
                root,
            )
        return [
            (d.name, [f.path for f in _sorted_entries(d.path, want_dirs=False)])
            for d in subdirs
        ]
    return [("", [f.path for f in _sorted_entries(root, want_dirs=False)])]


def run_image(spec: ExperimentSpec, threads: int = 1) -> list[TrialRecord]:
    """Run the covariance-descriptor experiment over a directory of images.

    One subdirectory per class, or a flat directory treated as one class.
    Unparseable files are skipped with a warning; an empty class is an
    error.  Each class is folded from the log blocks of
    ``descriptors._class_logs``, whose ``logm_stack`` checks the
    descriptors' positive definiteness once per block.  Sensitivity uses
    the analytic radius bound of the descriptor pipeline and n = class
    size; an image spec sets no n, r or k.
    """
    if spec.kind != "image":
        raise DomainError("run_image requires an image spec")
    threads = _checked_int(threads, "threads")
    root = Path(spec.image_dir)
    if not root.is_dir():
        raise DomainError(f"image_dir {root} is not a directory")
    params = DescriptorParams(eta=spec.eta)
    base = RngState(spec.seed)

    groups = []
    for name, files in _image_classes(root):
        mean_log, n = _mean_log(_class_logs(name, files, params))
        k = len(mean_log)
        radius = descriptor_radius_bound(k - 8, spec.eta)  # k = 8 + channels
        groups.append(_Group(_center(MECHANISMS[spec.mechanism], mean_log), n, k, radius))
    return _run_cells(spec, base, groups, threads)


def _format_float(x: float) -> str:
    return repr(float(x))


def render_csv(records: list[TrialRecord]) -> str:
    """Records as CSV text with the canonical header; acceptance_ratio is
    empty for mechanisms without a chain."""
    if not records:
        raise DomainError("no records to emit")
    lines = [CSV_HEADER]
    prefixes: dict[tuple, str] = {}  # "mechanism,k,epsilon,delta," per cell
    for rec in records:
        cell, (trial, utility, wall_time_ns, acceptance) = rec[:4], rec[4:]
        prefix = prefixes.get(cell)
        if prefix is None:
            mechanism, k, epsilon, delta = cell
            prefix = prefixes[cell] = (
                f"{mechanism},{k},{_format_float(epsilon)},{_format_float(delta)},"
            )
        acceptance = "" if acceptance is None else _format_float(acceptance)
        lines.append(f"{prefix}{trial},{_format_float(utility)},{wall_time_ns},{acceptance}")
    return "\n".join(lines) + "\n"


def emit_csv(records: list[TrialRecord], path: str | Path) -> None:
    """Write :func:`render_csv` output to ``path``."""
    Path(path).write_text(render_csv(records))
