"""Benchmark harness: privacy-utility experiments on synthetic and image data.

An :class:`ExperimentSpec` pins everything an experiment depends on,
including the seed; an untimed run's records (and hence its CSV) are a
pure function of the spec.  Each (epsilon, delta) cell is one
``Mechanism.release`` of all its trials on its own RNG substream, keyed by
(seed, cell); the row lays its trials out in that stream (a Gaussian row
draws one block, a chain row runs trial t on the sub-substream t), and a
resampled dataset has its own stream keyed by (seed, cell, trial).
Records are sorted canonically before emission.

Releases run in the coordinates the mechanism adds noise in (the log chart,
or the matrix entries for the extrinsic baseline): each group's summary is
a d-vector ``c`` computed once, each release is a d-vector ``z``, and the
utility is ``||z - c||^2``, so no SPD matrix is built per trial.  A
synthetic dataset and an image class alike reach their summary as blocks
of log-matrices that ``geometry._mean_log`` folds, so neither is held whole:
``sampling._synthetic_blocks`` draws a dataset's blocks, and
``descriptors._class_logs`` reads a class's files into its blocks.

A cell's release is one (trials, d) block z, row t for trial t; it is
overwritten in place by the deviations z - c, whose rows are scored by one
batched dot, and let go before the next cell's release, so a run holds one
(trials, d) block at a time.  The cells run one after another on the
calling thread: a release is a numpy block draw or a chain on Python
floats, which threads would not speed up, so ``threads`` is validated and
has no effect.

A run given a ``stages`` dict is timed (real timings are not reproducible,
so an untimed run's ``wall_time_ns`` is zero and its CSV byte-stable): it
adds to ``stages`` the ns of each of :data:`STAGES` and each of
:data:`COUNTS` (matrices drawn, images parsed, bytes read, chain steps and
accepted steps).  ``data`` is the fold of a dataset (inside ``cells`` when
resampled) or of an image class, with its ``descriptors`` and ``logm``.
``release``, inside ``cells``, times each cell's draw alone, after its noise
substream is forked; a timed trial records its cell's release time divided
by the number of trials, rounded up.

Every noise scale is calibrated before any data work, so an invalid
privacy budget fails before a dataset is drawn or an image is read.  The
image paths alone import the image pipeline, so a synthetic run never
loads it.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, NumericalError, _checked_int, _timed
from .geometry import MAX_DIM, _mean_log
from .mechanisms import MECHANISMS, PrivacyBudget, Sensitivity, SensitivityKind
from .mechanisms import acceptance_warning
from .sampling import _MAX_SEED, RngState, _check_radius, _synthetic_blocks

log = logging.getLogger(__name__)

CSV_HEADER = "mechanism,k,epsilon,delta,trial,utility,wall_time_ns,acceptance_ratio"

# A recorded run's stage times in ns (the CLI times csv and svg), then counts.
STAGES = ("data", "cells", "release", "descriptors", "logm", "csv", "svg")
COUNTS = ("matrices", "images", "bytes", "mcmc_steps", "mcmc_accepted")

# A synthetic spec's n, r and k when it leaves them None.
SYNTHETIC_DEFAULTS = {"n": 500, "r": 0.25, "k": 2}

# Substream tags so dataset and noise streams never collide.
_DATA_STREAM = 0
_NOISE_STREAM = 1


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark configuration; an untimed run's records are a pure function of it."""

    kind: str  # "synthetic" | "image"
    mechanism: str
    epsilon_grid: tuple[float, ...]
    delta_grid: tuple[float, ...]
    n: int | None = None  # synthetic only, as r and k: SYNTHETIC_DEFAULTS
    r: float | None = None
    k: int | None = None
    trials: int = 10
    seed: int = 0
    burn_in: int = 50000
    image_dir: str | None = None  # image only, as eta: DescriptorParams.eta
    eta: float | None = None
    resample_data: bool = False

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
            for name, default in SYNTHETIC_DEFAULTS.items():
                if getattr(self, name) is None:
                    object.__setattr__(self, name, default)
            object.__setattr__(self, "n", _checked_int(self.n, "n"))
            object.__setattr__(self, "k", _checked_int(self.k, "k", error=DimensionError))
            if not 2 <= self.k <= MAX_DIM:
                raise DomainError(f"synthetic experiments need 2 <= k <= {MAX_DIM}, got {self.k}")
            _check_radius(self.r)
            if self.image_dir is not None or self.eta is not None:
                # run_synthetic reads no image
                raise DomainError("synthetic experiments take no image_dir or eta")
        elif self.image_dir is None:
            raise DomainError("image experiments require image_dir")
        elif self.resample_data:  # a class has no other draw
            raise DomainError("image experiments take no resample_data")
        elif any(v is not None for v in (self.n, self.r, self.k)):
            # a class's n is its size, its radius the descriptors' bound, k 8 + channels
            raise DomainError("image experiments take no n, r or k: each class sets its own")
        elif self.eta is None:
            from .descriptors import DescriptorParams

            object.__setattr__(self, "eta", DescriptorParams.eta)
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
    (see ``Mechanism.center``), or None when every trial draws its own
    dataset.
    """

    center: np.ndarray | None
    n: int
    k: int
    radius: float


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


def _record(stages: dict | None) -> tuple[bool, dict]:
    """Whether a run given ``stages`` is timed, and the dict it adds to
    (``stages``, or a throwaway one) with every name it may add to."""
    timed = stages is not None
    stages = stages if timed else {}
    stages.update({name: stages.get(name, 0) for name in STAGES + COUNTS})
    return timed, stages


def _budgets(spec: ExperimentSpec, n: int, radius: float) -> list[tuple[float, float, float]]:
    """(epsilon, delta, sigma) of each cell of a group of ``n`` points in a
    ball of ``radius``."""
    mechanism = MECHANISMS[spec.mechanism]
    return [
        (eps, delta, mechanism.noise_scale(n, radius, eps, delta))
        for eps in spec.epsilon_grid
        for delta in spec.delta_grid
    ]


def _dataset_center(spec: ExperimentSpec, rng: RngState, stages: dict) -> np.ndarray:
    """The release center of ``spec``'s dataset drawn on ``rng``; the fold is ``data``."""
    mean_log, n = _timed(stages, "data", _mean_log, _synthetic_blocks(rng, spec.k, spec.r, spec.n))
    stages["matrices"] += n
    return MECHANISMS[spec.mechanism].center(mean_log)


def _run_cells(
    spec: ExperimentSpec, base: RngState, cells: list[tuple], stages: dict, timed: bool
) -> list[TrialRecord]:
    """Release and score every (group, epsilon, delta, sigma) cell.

    A cell is one ``Mechanism.release`` of all its trials on substream
    (_NOISE_STREAM, cell), a (trials, d) block that is then overwritten by
    the deviations z - c, scored and dropped.  A resampled cell first draws
    its (trials, d) centers, trial t's from its own dataset on substream
    (_DATA_STREAM, cell, trial).
    """
    mechanism = MECHANISMS[spec.mechanism]
    records = []
    for ci, (group, eps, delta, sigma) in enumerate(cells):
        center = group.center
        if spec.resample_data:  # each trial's summary, of its own dataset
            center = np.array([
                _dataset_center(spec, base.substream(_DATA_STREAM, ci, t), stages)
                for t in range(spec.trials)
            ])
        rng = base.substream(_NOISE_STREAM, ci)
        start = time.perf_counter_ns()
        block, ratios = mechanism.release(rng, center, sigma, spec.trials, burn_in=spec.burn_in)
        elapsed = time.perf_counter_ns() - start
        stages["release"] += elapsed
        per_trial = -(-elapsed // spec.trials) if timed else 0
        block -= center
        utilities = _row_dots(block).tolist()
        del block  # before the next cell's release makes its own
        ratios = [None] * spec.trials if ratios is None else ratios.tolist()
        if ratios[0] is not None:  # a chain's steps
            stages["mcmc_steps"] += spec.burn_in * spec.trials
            stages["mcmc_accepted"] += sum(round(r * spec.burn_in) for r in ratios)
        for trial, (utility, ratio) in enumerate(zip(utilities, ratios)):
            if ratio is not None and (warning := acceptance_warning(ratio)):
                log.warning("%s", warning)
            records.append(TrialRecord(
                spec.mechanism, group.k, eps, delta, trial, utility, per_trial, ratio
            ))
    records.sort(key=TrialRecord.sort_key)
    return records


def run_synthetic(
    spec: ExperimentSpec, threads: int = 1, *, stages: dict | None = None
) -> list[TrialRecord]:
    """Run the synthetic-data experiment described by ``spec``.

    The dataset is drawn once per (k, r, seed), on its own substream, and
    shared by all cells unless ``resample_data`` asks for a fresh dataset
    per trial; it is drawn exactly when ``resample_data`` is off.  Each
    dataset is streamed block by block into its mean log-matrix; its
    (n, k, k) stack is never built.  The ball radius, and so every noise
    scale, is the generator's public guarantee sqrt(k) * r, never read from
    the data, and every noise scale is calibrated before the draw.
    ``resample_data`` stays until the benchmark's fresh-data workload no
    longer passes it.
    """
    if spec.kind != "synthetic":
        raise DomainError("run_synthetic requires a synthetic spec")
    _checked_int(threads, "threads")  # validated, no effect: the cells run on this thread
    timed, stages = _record(stages)
    base = RngState(spec.seed)
    radius = math.sqrt(spec.k) * spec.r
    budgets = _budgets(spec, spec.n, radius)
    center = None
    if not spec.resample_data:
        center = _dataset_center(spec, base.substream(_DATA_STREAM), stages)
    group = _Group(center=center, n=spec.n, k=spec.k, radius=radius)
    cells = [(group, *budget) for budget in budgets]
    return _timed(stages, "cells", _run_cells, spec, base, cells, stages, timed)


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


def run_image(
    spec: ExperimentSpec, threads: int = 1, *, stages: dict | None = None
) -> list[TrialRecord]:
    """Run the covariance-descriptor experiment over a directory of images.

    One subdirectory per class, or a flat directory treated as one class.
    Unparseable files are skipped with a warning; an empty class is an
    error.  Each class is folded from the log blocks of
    ``descriptors._class_logs``, whose ``logm_stack`` checks the
    descriptors' positive definiteness once per block.  Sensitivity uses
    the analytic radius bound of the descriptor pipeline and n = class
    size; an image spec sets no n, r or k.  The row's calibration runs at
    unit sensitivity on every (epsilon, delta) before any file is read, so
    only a noise scale that overflows at a class's own sensitivity fails
    after the read.
    """
    if spec.kind != "image":
        raise DomainError("run_image requires an image spec")
    from .descriptors import DescriptorParams, _class_logs, descriptor_radius_bound

    _checked_int(threads, "threads")  # validated, no effect: the cells run on this thread
    mechanism = MECHANISMS[spec.mechanism]
    unit = Sensitivity(1.0, SensitivityKind.LOG_EUCLIDEAN)
    for eps in spec.epsilon_grid:
        for delta in spec.delta_grid:
            mechanism.calibrate(unit, PrivacyBudget(eps, delta))
    root = Path(spec.image_dir)
    if not root.is_dir():
        raise DomainError(f"image_dir {root} is not a directory")
    params = DescriptorParams(eta=spec.eta)
    base = RngState(spec.seed)
    timed, stages = _record(stages)
    cells = []
    for name, files in _image_classes(root):
        mean_log, n = _timed(stages, "data", _mean_log, _class_logs(name, files, params, stages))
        stages["images"] += n
        k = len(mean_log)
        radius = descriptor_radius_bound(k - 8, spec.eta)  # k = 8 + channels
        group = _Group(mechanism.center(mean_log), n, k, radius)
        cells += [(group, *budget) for budget in _budgets(spec, n, radius)]
    return _timed(stages, "cells", _run_cells, spec, base, cells, stages, timed)


def _format_float(x: float) -> str:
    return repr(float(x))


def render_csv(records: list[TrialRecord]) -> str:
    """Records as CSV text with the canonical header; acceptance_ratio is
    empty for mechanisms without a chain."""
    if not records:
        raise DomainError("no records to emit")
    lines = [CSV_HEADER]
    # a cell's "mechanism,k,epsilon,delta," is formatted where the cell
    # changes, once per cell in canonical order: the repr of its two floats
    # is a third of the time per record
    cell = prefix = None
    for rec in records:
        if rec[:4] != cell:
            cell = mechanism, k, epsilon, delta = rec[:4]
            prefix = f"{mechanism},{k},{_format_float(epsilon)},{_format_float(delta)},"
        trial, utility, wall_time_ns, acceptance = rec[4:]
        acceptance = "" if acceptance is None else _format_float(acceptance)
        lines.append(f"{prefix}{trial},{_format_float(utility)},{wall_time_ns},{acceptance}")
    return "\n".join(lines) + "\n"


def emit_csv(records: list[TrialRecord], path: str | Path) -> None:
    """Write :func:`render_csv` output to ``path``."""
    Path(path).write_text(render_csv(records))
