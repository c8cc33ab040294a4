import contextlib
import io
import json
import math
import statistics
import threading
import tracemalloc
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdprivacy import cli, descriptors, harness
from spdprivacy.cli import main, read_matrix
from spdprivacy.descriptors import (
    DescriptorParams,
    RasterImage,
    _BlockBuffers,
    covariance_descriptor,
    load_pnm,
    save_pnm,
)
from spdprivacy.errors import DomainError
from spdprivacy.geometry import (
    MAX_DIM,
    SpdMatrix,
    expm_stack,
    frechet_mean_le,
    le_distance,
    logm_stack,
    vecd_stack,
)
from spdprivacy.harness import (
    COUNTS,
    CSV_HEADER,
    STAGES,
    SYNTHETIC_DEFAULTS,
    ExperimentSpec,
    TrialRecord,
    emit_csv,
    render_csv,
    run_image,
    run_synthetic,
)
from spdprivacy.mechanisms import (
    MECHANISMS,
    Mechanism,
    PrivacyBudget,
    Sensitivity,
    SensitivityKind,
    calibrate_analytic,
    calibrate_classical,
    sensitivity_extrinsic,
    sensitivity_frechet_le,
)
from spdprivacy.plotting import emit_plot
from spdprivacy.sampling import RngState

from conftest import one_shot_logs, peak_bytes


def small_spec(**overrides):
    base = dict(
        kind="synthetic",
        mechanism="tangent_analytic",
        epsilon_grid=(0.1, 0.5),
        delta_grid=(1e-6,),
        n=40,
        r=0.25,
        k=2,
        trials=3,
        seed=123,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def write_corpus(root, classes=("a", "b"), per_class=400, channels=1, seed=0):
    # with the eta = 1e-6 radius bound (~41.4) the calibrated noise scale is
    # ~2r/(n eps); class sizes must stay paper-realistic (hundreds+) or the
    # privatized matrices leave the numerically representable SPD cone
    rng = np.random.default_rng(seed)
    for name in classes:
        d = root / name
        d.mkdir(parents=True, exist_ok=True)
        for i in range(per_class):
            arr = rng.integers(0, 256, size=(10, 10, channels)) / 255.0
            save_pnm(RasterImage(arr), d / f"img{i}.{'pgm' if channels == 1 else 'ppm'}")


def image_spec(image_dir, **overrides):
    base = dict(
        kind="image",
        mechanism="tangent_analytic",
        epsilon_grid=(0.9,),
        delta_grid=(1e-6,),
        trials=2,
        seed=9,
        image_dir=str(image_dir),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_mechanism_checked(self):
        with pytest.raises(DomainError):
            small_spec(mechanism="nope")

    def test_grids_nonempty(self):
        with pytest.raises(DomainError):
            small_spec(epsilon_grid=())

    def test_synthetic_needs_k2(self):
        with pytest.raises(DomainError):
            small_spec(k=1)

    def test_synthetic_k_capped(self):
        assert small_spec(k=MAX_DIM).k == MAX_DIM
        with pytest.raises(DomainError, match="k <= 256"):
            small_spec(k=MAX_DIM + 1)

    @pytest.mark.parametrize(
        "grids", [{"epsilon_grid": (0.1, 0.5, 0.1)}, {"delta_grid": (1e-6, 1e-6)}]
    )
    def test_duplicate_grid_values_rejected(self, grids):
        # two cells with equal values would emit rows that cannot be told apart
        with pytest.raises(DomainError, match="duplicate"):
            small_spec(**grids)

    @pytest.mark.parametrize("r", [0.0, math.nan, math.inf, 800.0, 1e308])
    def test_synthetic_radius_checked(self, r):
        # e^r must be finite, or the generator cannot sample [e^-r, e^r]
        with pytest.raises(DomainError, match="e\\^r is finite"):
            small_spec(r=r)

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64])
    def test_seed_checked_when_built(self, seed):
        # seed 1.5 would run as seed 1, and -1 fails only in run_synthetic
        with pytest.raises(DomainError, match="seed"):
            small_spec(seed=seed)

    def test_integer_fields_normalised(self):
        spec = small_spec(k=np.int64(3), n=np.int64(40), trials=np.int64(2), seed=np.uint64(7))
        assert [type(v) for v in (spec.k, spec.n, spec.trials, spec.seed)] == [int] * 4
        assert render_csv(run_synthetic(spec)) == render_csv(
            run_synthetic(small_spec(k=3, n=40, trials=2, seed=7))
        )

    def test_image_needs_dir(self):
        with pytest.raises(DomainError):
            ExperimentSpec(
                kind="image",
                mechanism="tangent_analytic",
                epsilon_grid=(0.1,),
                delta_grid=(1e-6,),
            )

    @pytest.mark.parametrize("flag", ["resample_data"])
    def test_image_rejects_synthetic_only_flags(self, tmp_path, flag):
        # run_image would ignore it: a class is not redrawn
        with pytest.raises(DomainError, match="take no resample_data"):
            image_spec(tmp_path, **{flag: True})

    def test_measured_radius_removed(self):
        # a radius read from the data made sigma a function of the data
        with pytest.raises(TypeError, match="measured_radius"):
            small_spec(measured_radius=True)

    @pytest.mark.parametrize("field", [{"n": 3}, {"r": 99.0}, {"k": 7}, {"n": 500}])
    def test_image_rejects_synthetic_sizes(self, tmp_path, field):
        # run_image would ignore them: a class's n is its size, its radius
        # the descriptors' bound and k 8 + channels
        with pytest.raises(DomainError, match="take no n, r or k"):
            image_spec(tmp_path, **field)
        spec = image_spec(tmp_path)
        assert (spec.n, spec.r, spec.k) == (None, None, None)

    @pytest.mark.parametrize("field", [{"image_dir": "/nonexistent"}, {"eta": 5.0},
                                       {"eta": DescriptorParams.eta}])
    def test_synthetic_rejects_image_fields(self, tmp_path, field):
        # run_synthetic would ignore them: it reads no image
        with pytest.raises(DomainError, match="take no image_dir or eta"):
            small_spec(**field)
        assert (small_spec().image_dir, small_spec().eta) == (None, None)
        assert image_spec(tmp_path).eta == DescriptorParams.eta

    def test_synthetic_sizes_default(self):
        spec = ExperimentSpec(kind="synthetic", mechanism="tangent_analytic",
                              epsilon_grid=(0.5,), delta_grid=(1e-6,))
        assert (spec.n, spec.r, spec.k) == (500, 0.25, 2)
        assert small_spec(n=None, r=None, k=None) == small_spec(n=500, r=0.25, k=2)


class TestRunSynthetic:
    def test_deterministic_across_runs_and_threads(self):
        spec = small_spec()
        csv_one = render_csv(run_synthetic(spec, threads=1))
        csv_two = render_csv(run_synthetic(spec, threads=1))
        csv_eight = render_csv(run_synthetic(spec, threads=8))
        assert csv_one == csv_two == csv_eight

    def test_seed_changes_output(self):
        a = render_csv(run_synthetic(small_spec(seed=1)))
        b = render_csv(run_synthetic(small_spec(seed=2)))
        assert a != b

    def test_canonical_record_order(self):
        records = run_synthetic(small_spec(), threads=4)
        keys = [r.sort_key() for r in records]
        assert keys == sorted(keys)

    def test_classical_epsilon_restriction_surfaces(self):
        spec = small_spec(mechanism="tangent_classical", epsilon_grid=(1.5,))
        with pytest.raises(DomainError, match="analytic"):
            run_synthetic(spec)

    @pytest.mark.parametrize("threads", [0, -3, 2.5])
    def test_threads_must_be_positive(self, threads, tmp_path):
        with pytest.raises(DomainError, match="threads"):
            run_synthetic(small_spec(), threads=threads)
        with pytest.raises(DomainError, match="threads"):
            run_image(image_spec(tmp_path), threads=threads)

    @pytest.mark.parametrize("kind", ["laplace", "resampled", "image"])
    def test_runs_start_no_thread(self, monkeypatch, tmp_path, kind):
        # every cell runs on the calling thread whatever ``threads`` is, and
        # the output does not depend on it
        def no_thread(self):
            raise AssertionError("thread started")

        if kind == "image":
            write_corpus(tmp_path, per_class=20)
            spec, run = image_spec(tmp_path), run_image
        else:
            spec, run = small_spec(mechanism="riemannian_laplace", burn_in=300,
                                   resample_data=kind == "resampled"), run_synthetic
        want = render_csv(run(spec, threads=1))
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert render_csv(run(spec, threads=2)) == want

    def test_resample_data_redraws_summary_not_utilities(self, monkeypatch):
        # the noise substream does not depend on the data and the utility
        # ||z - c||^2 is translation invariant, so redrawing the summary c
        # per trial leaves every utility unchanged up to rounding
        centers = []
        release = Mechanism.release

        def spy(row, rng, center, sigma, trials=1, **kwargs):
            centers.append(center)
            return release(row, rng, center, sigma, trials, **kwargs)

        monkeypatch.setattr(Mechanism, "release", spy)
        for mechanism in ("tangent_analytic", "extrinsic_analytic", "riemannian_laplace"):
            centers.clear()
            fixed = run_synthetic(small_spec(mechanism=mechanism, burn_in=200))
            fixed_centers = list(centers)
            centers.clear()
            resampled = run_synthetic(
                small_spec(mechanism=mechanism, burn_in=200, resample_data=True)
            )
            trials = len(fixed)
            # one release per cell, chain or not: the shared center, or one
            # fresh center per trial
            assert len(fixed_centers) == len(centers) == len(small_spec().epsilon_grid)
            assert all(c is fixed_centers[0] for c in fixed_centers)
            rows = np.concatenate(centers)
            assert len(rows) == trials
            distinct = {tuple(c) for c in rows}
            assert len(distinct) == trials and tuple(fixed_centers[0]) not in distinct
            assert [r.utility for r in resampled] == pytest.approx(
                [r.utility for r in fixed], rel=1e-12, abs=0.0
            )
            # a chain's acceptance reads only its distance to the center
            assert [r.acceptance_ratio for r in resampled] == [r.acceptance_ratio for r in fixed]

    @pytest.mark.parametrize(
        "resample, laplace, base_calls",
        [(True, False, 0), (False, False, 1), (True, True, 0), (False, True, 1)],
    )
    def test_base_dataset_drawn_only_when_read(self, monkeypatch, resample, laplace, base_calls):
        # the base dataset on stream (0,) is read only for its center (fixed
        # data); resampled trials, Gaussian or Laplace, draw on (0, cell, trial)
        streams = []
        blocks = harness._synthetic_blocks

        def spy(rng, k, r, n, **kwargs):
            streams.append(rng.stream)
            return blocks(rng, k, r, n, **kwargs)

        monkeypatch.setattr(harness, "_synthetic_blocks", spy)
        spec = small_spec(resample_data=resample, burn_in=200,
                          mechanism="riemannian_laplace" if laplace else "tangent_analytic")
        run_synthetic(spec)
        cells = len(spec.epsilon_grid) * len(spec.delta_grid)
        per_trial = [(0, cell, t) for cell in range(cells) for t in range(spec.trials)]
        assert streams.count((0,)) == base_calls
        assert sorted(s for s in streams if s != (0,)) == (per_trial if resample else [])

    def test_acceptance_ratio_only_for_mcmc(self):
        tangent = run_synthetic(small_spec(trials=1, epsilon_grid=(0.1,)))
        assert all(r.acceptance_ratio is None for r in tangent)
        laplace = run_synthetic(
            small_spec(
                mechanism="riemannian_laplace",
                trials=1,
                epsilon_grid=(0.1,),
                burn_in=500,
            )
        )
        assert all(r.acceptance_ratio is not None for r in laplace)

    @pytest.mark.parametrize("k", [2, 10])
    @pytest.mark.parametrize("mechanism", list(MECHANISMS))
    def test_utility_law_at_harness_level(self, mechanism, k):
        # the cell's mean utility / sigma^2 lies within 4 standard errors of
        # its closed form: d for a Gaussian row (variance 2d), d(d + 1) for
        # the exact Laplace law (variance d(d + 1)(4d + 6)), whose chain runs
        # at a burn-in where its distance to that law is below 1e-10
        laplace = mechanism == "riemannian_laplace"
        spec = small_spec(
            mechanism=mechanism,
            epsilon_grid=(0.1,),
            delta_grid=(1e-6,),
            trials=200 if laplace else 10**4,
            n=30,
            k=k,
            seed=7,
            burn_in={2: 1000, 10: 10000}[k] if laplace else 1,
        )
        records = run_synthetic(spec, threads=2)
        extrinsic = mechanism == "extrinsic_analytic"
        sens = (sensitivity_extrinsic if extrinsic else sensitivity_frechet_le)(
            spec.n, math.sqrt(k) * spec.r
        )
        budget = PrivacyBudget(0.1, 1e-6)
        if laplace:
            sigma = sens.value / budget.epsilon
        elif mechanism == "tangent_classical":
            sigma = calibrate_classical(sens, budget)
        else:
            sigma = calibrate_analytic(sens, budget)
        d = k * (k + 1) // 2
        mean, var = (d * (d + 1), d * (d + 1) * (4 * d + 6)) if laplace else (d, 2 * d)
        scaled = np.array([r.utility for r in records]) / sigma**2
        assert abs(scaled.mean() - mean) <= 4 * math.sqrt(var / scaled.size)
        if not laplace:
            # sample mean approaches sigma^2 d at rate n^-1/2, and the
            # paper-style 1000-trial average lands within 10% of it
            assert abs(scaled.mean() - d) / d <= 0.05
            assert abs(scaled[:1000].mean() - d) / d <= 0.10

    def test_timing_recorded_only_on_request(self):
        silent = run_synthetic(small_spec(trials=1))
        assert all(r.wall_time_ns == 0 for r in silent)
        timed = run_synthetic(small_spec(trials=1), stages={})
        assert all(r.wall_time_ns > 0 for r in timed)

    def test_tangent_much_faster_than_mcmc(self):
        tangent = small_spec(k=10, trials=5, epsilon_grid=(0.1,))
        laplace = small_spec(
            k=10,
            trials=5,
            epsilon_grid=(0.1,),
            mechanism="riemannian_laplace",
            burn_in=10000,
        )
        # three interleaved runs of each, so that load on the host in one
        # stretch of time cannot slow only one side's fastest release
        fast, slow = [], []
        for _ in range(3):
            fast += [r.wall_time_ns for r in run_synthetic(tangent, stages={})]
            slow += [r.wall_time_ns for r in run_synthetic(laplace, stages={})]
        assert min(slow) >= 100 * min(fast)


def per_cell_utilities(spec):
    """Utilities by (epsilon, delta, trial) of a synthetic Gaussian run: per
    cell, center + sigma * N for the (trials, d) block N drawn from
    substream (1, cell), around the dataset center or, with
    ``resample_data``, around the center of each trial's own dataset from
    substream (0, cell, trial); one dot per row of z - c.  The noise scale
    and center come from the public sensitivity and calibration functions,
    not from the harness."""
    base = RngState(spec.seed)
    logs = one_shot_logs(base.substream(0), spec.k, spec.r, spec.n)
    extrinsic = spec.mechanism == "extrinsic_analytic"
    sensitivity = sensitivity_extrinsic if extrinsic else sensitivity_frechet_le
    sens = sensitivity(spec.n, math.sqrt(spec.k) * spec.r)
    calibrate = calibrate_classical if spec.mechanism == "tangent_classical" else calibrate_analytic
    cells = [(eps, delta) for eps in spec.epsilon_grid for delta in spec.delta_grid]
    out = {}
    for cell, (eps, delta) in enumerate(cells):
        sigma = calibrate(sens, PrivacyBudget(eps, delta))
        centers = []
        for trial in range(spec.trials):
            if spec.resample_data:
                data = base.substream(0, cell, trial)
                logs = one_shot_logs(data, spec.k, spec.r, spec.n)
            mean_log = logs.mean(axis=0)
            centers.append(vecd_stack(expm_stack(mean_log) if extrinsic else mean_log))
        centers = np.array(centers)
        block = base.substream(1, cell).generator.standard_normal(centers.shape)
        z = centers + sigma * block
        for trial, deviation in enumerate(z - centers):
            out[eps, delta, trial] = float(deviation @ deviation)
    return out


class TestGaussianCellBlock:
    """A Gaussian cell releases, centers and scores its trials in one
    (trials, d) block, dropped before the next cell's release."""

    @pytest.mark.parametrize("trials", [1, 2, 120])
    @pytest.mark.parametrize("d", [1, 3, 55, 465])
    def test_row_dots_equal_per_row_dots(self, d, trials):
        rows = np.random.default_rng(1000 * d + trials).standard_normal((trials, d))
        assert harness._row_dots(rows).tolist() == [float(r @ r) for r in rows]

    def test_cells_allocate_under_two_blocks(self):
        # three k = 30 cells of 120 trials: one (120, 465) block at a time,
        # not separate noise, release and deviation blocks, nor two cells' blocks
        spec = small_spec(k=30, n=500, trials=120, epsilon_grid=(0.1, 0.2, 0.3))
        center = np.linspace(-1.0, 1.0, 465)
        group = harness._Group(center=center, n=500, k=30, radius=math.sqrt(30) * 0.25)
        cells = [(group, *budget) for budget in harness._budgets(spec, group.n, group.radius)]
        stages = dict.fromkeys(STAGES + COUNTS, 0)
        harness._run_cells(spec, RngState(5), cells, stages, False)  # warm-up
        tracemalloc.start()
        try:
            harness._run_cells(spec, RngState(5), cells, stages, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 120 * 465 * 8


class TestBatchedGaussianCells:
    """A Gaussian cell releases all its trials from one noise block drawn
    from its own substream; every utility must equal that release bit for
    bit, whatever the thread count, and trial t's must not depend on the
    number of trials."""

    @pytest.mark.parametrize("threads", [1, 8])
    @pytest.mark.parametrize("resample", [False, True])
    @pytest.mark.parametrize(
        "mechanism", ["tangent_classical", "tangent_analytic", "extrinsic_analytic"]
    )
    def test_utilities_equal_per_cell_release(self, mechanism, resample, threads):
        # k = 10 gives d = 55, so odd rows of the noise block are not
        # 16-byte aligned
        spec = small_spec(
            mechanism=mechanism, k=10, trials=7, resample_data=resample,
            delta_grid=(1e-6, 1e-8),
        )
        records = run_synthetic(spec, threads=threads)
        want = per_cell_utilities(spec)
        assert len(records) == len(want)
        assert all(r.utility == want[r.epsilon, r.delta, r.trial] for r in records)

    @pytest.mark.parametrize("k", [2, 10, 30])  # d = 3, 55, 465
    def test_first_trials_do_not_depend_on_trial_count(self, k):
        def utilities(trials):
            spec = small_spec(k=k, trials=trials)
            return [(r.epsilon, r.delta, r.trial, r.utility) for r in run_synthetic(spec)]

        long_run = [row for row in utilities(7) if row[2] < 3]
        assert utilities(3) == long_run

    def test_timing_nonzero_per_trial(self, tmp_path):
        for mechanism, extra in (("tangent_analytic", []), ("riemannian_laplace", ["--burn-in", "50"])):
            out = tmp_path / f"{mechanism}.csv"
            argv = ["synthetic-bench", "--mechanism", mechanism, "--k", "3", "--n", "40",
                    "--eps", "0.3,0.5", "--delta", "1e-6", "--trials", "6", "--timing",
                    "--out-csv", str(out)]
            assert main(argv + extra) == 0
            rows = out.read_text().splitlines()[1:]
            assert len(rows) == 12
            assert all(int(row.split(",")[6]) > 0 for row in rows)
            # a cell's trials share one time: its release time over the trials
            cells = {(row.split(",")[2], row.split(",")[6]) for row in rows}
            assert len(cells) == 2


class TestRunImage:
    def test_classes_and_records(self, tmp_path):
        write_corpus(tmp_path, classes=("a", "b"))
        records = run_image(image_spec(tmp_path))
        assert len(records) == 2 * 2  # classes x trials
        assert all(r.k == 9 for r in records)
        assert all(r.utility >= 0 for r in records)

    def test_flat_directory_single_class(self, tmp_path):
        write_corpus(tmp_path / "flat", classes=("",))
        records = run_image(image_spec(tmp_path / "flat", trials=3))
        assert len(records) == 3

    def test_rgb_descriptor_dim(self, tmp_path):
        write_corpus(tmp_path, classes=("c",), channels=3)
        records = run_image(image_spec(tmp_path, trials=1, seed=3))
        assert all(r.k == 11 for r in records)

    def test_sensitivity_formula_composition(self):
        from spdprivacy.descriptors import descriptor_radius_bound
        from spdprivacy.mechanisms import MECHANISMS

        bound = descriptor_radius_bound(1, 1e-6)
        sens = MECHANISMS["tangent_analytic"].sensitivity(1000, bound)
        assert sens.value == pytest.approx(2.0 * bound / 1000, rel=1e-15)

    def test_tiny_class_releases_at_any_noise_scale(self, tmp_path):
        # sigma ~ 70 here; exporting such a release as an SPD matrix
        # overflows float64, but the harness scores it in the log chart
        from spdprivacy.descriptors import descriptor_radius_bound
        from spdprivacy.mechanisms import sensitivity_frechet_le

        rng = np.random.default_rng(8)
        for i in range(5):
            arr = rng.integers(0, 256, size=(8, 8, 1)) / 255.0
            save_pnm(RasterImage(arr), tmp_path / f"{i}.pgm")
        records = run_image(image_spec(tmp_path, epsilon_grid=(0.1,), trials=20))
        sens = sensitivity_frechet_le(5, descriptor_radius_bound(1, 1e-6))
        sigma = calibrate_analytic(sens, PrivacyBudget(0.1, 1e-6))
        scaled = np.mean([r.utility for r in records]) / sigma**2
        assert abs(scaled - 45.0) / 45.0 <= 0.3  # chi^2_45 mean; sd of the ratio ~0.047

    def test_utility_decreases_with_class_size(self, tmp_path):
        rng = np.random.default_rng(31)
        means = []
        for n in (250, 500, 1000):
            d = tmp_path / f"n{n}"
            d.mkdir()
            for i in range(n):
                arr = rng.integers(0, 256, size=(8, 8, 1)) / 255.0
                save_pnm(RasterImage(arr), d / f"{i}.pgm")
            records = run_image(image_spec(d, trials=8, seed=13))
            means.append(np.mean([r.utility for r in records]))
        assert means[0] > means[1] > means[2]

    def test_identical_images_mean_equals_descriptor(self, tmp_path):
        rng = np.random.default_rng(5)
        arr = rng.integers(0, 256, size=(10, 10, 1)) / 255.0
        d = tmp_path / "same"
        d.mkdir()
        for i in range(4):
            save_pnm(RasterImage(arr), d / f"{i}.pgm")
        descriptor = covariance_descriptor(RasterImage(arr))
        mean = frechet_mean_le([descriptor] * 4)
        assert le_distance(mean, descriptor) <= 1e-10

    def test_unparseable_skipped_with_warning(self, tmp_path, caplog):
        write_corpus(tmp_path, classes=("a",))
        (tmp_path / "a" / "junk.pgm").write_bytes(b"not a pnm")
        with caplog.at_level("WARNING"):
            records = run_image(image_spec(tmp_path, trials=1, seed=1))
        assert len(records) == 1
        assert any("skipping" in m for m in caplog.messages)

    def test_top_level_files_next_to_classes_warned(self, tmp_path, caplog):
        write_corpus(tmp_path, classes=("a",), per_class=300)
        rng = np.random.default_rng(2)
        for i in range(30):
            arr = rng.integers(0, 256, size=(10, 10, 1)) / 255.0
            save_pnm(RasterImage(arr), tmp_path / f"top_{i}.pgm")
        with caplog.at_level("WARNING"):
            with_top = render_csv(run_image(image_spec(tmp_path, trials=1)))
        assert caplog.messages == [
            f"ignoring 30 top-level file(s) in {tmp_path}: it has class subdirectories"
        ]
        for path in tmp_path.glob("top_*"):
            path.unlink()
        assert render_csv(run_image(image_spec(tmp_path, trials=1))) == with_top

    def test_empty_class_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DomainError, match="no parseable images"):
            run_image(image_spec(tmp_path, trials=1, seed=1))

    def test_mixed_channels_rejected(self, tmp_path):
        d = tmp_path / "mix"
        d.mkdir()
        rng = np.random.default_rng(6)
        save_pnm(RasterImage(rng.integers(0, 256, (8, 8, 1)) / 255.0), d / "g.pgm")
        save_pnm(RasterImage(rng.integers(0, 256, (8, 8, 3)) / 255.0), d / "c.ppm")
        with pytest.raises(DomainError, match="mixes"):
            run_image(image_spec(tmp_path, trials=1, seed=1))


def write_shapes(d, shapes, seed, junk_at=None):
    """One PNM per entry of ``shapes`` ((h, w, c) each) under ``d``, named in
    order; an unparseable file is inserted before index ``junk_at``."""
    rng = np.random.default_rng(seed)
    d.mkdir(parents=True)
    for i, shape in enumerate(shapes):
        if i == junk_at:
            (d / f"{i:03d}_junk.pgm").write_bytes(b"P5\n8 8\n255\n" + bytes(5))
        ext = "pgm" if shape[2] == 1 else "ppm"
        save_pnm(RasterImage(rng.integers(0, 256, size=shape) / 255.0), d / f"{i:03d}.{ext}")


class TestImageBlocks:
    """``run_image`` folds a class from ``descriptors._class_logs``, which
    streams it through ``_BlockBuffers.descriptors`` in blocks; the result
    must not depend on where the blocks fall."""

    G8, G6 = (8, 8, 1), (6, 11, 1)  # 576 and 594 feature values per image

    @pytest.fixture
    def buffers(self, monkeypatch):
        """Cap blocks at three 8x8 gray images, and record the size of each
        ``_BlockBuffers`` the class reader builds and each block's shape
        (each class is streamed twice per check: directly and by run_image)."""
        monkeypatch.setattr(descriptors, "BLOCK_DOUBLES", 3 * 576)
        built, shapes = [], []

        class Spy(descriptors._BlockBuffers):
            def __init__(self, capacity, h, w, c):
                built.append((h, w, c))
                super().__init__(capacity, h, w, c)

            def descriptors(self, stack, params, out=None):
                shapes.append(stack.shape[:3])
                return super().descriptors(stack, params, out)

        monkeypatch.setattr(descriptors, "_BlockBuffers", Spy)
        return built, shapes

    @pytest.fixture
    def blocks(self, buffers):
        return buffers[1]

    @pytest.fixture
    def log_blocks(self, monkeypatch):
        """The number of matrices in each stack the class reader's
        ``logm_stack`` maps."""
        sizes = []

        def spy(mats):
            sizes.append(len(mats))
            return logm_stack(mats)

        monkeypatch.setattr(descriptors, "logm_stack", spy)
        return sizes

    def check_against_one_at_a_time(self, d, monkeypatch, mechanism="tangent_analytic"):
        """Bit for bit the n, descriptors' logs and center of descriptors
        computed one image at a time by ``load_pnm``."""
        params = DescriptorParams(eta=1e-6)
        ref = []
        with monkeypatch.context() as patch:  # the reference passes by the spies
            patch.setattr(descriptors, "_BlockBuffers", _BlockBuffers)
            for path in sorted(d.iterdir()):
                try:
                    ref.append(covariance_descriptor(load_pnm(path), params).entries)
                except DomainError:
                    continue
        ref = np.stack(ref)
        got = descriptors._class_logs("c", [str(p) for p in sorted(d.iterdir())], params,
                                       dict.fromkeys(STAGES + COUNTS, 0))
        assert np.array_equal(np.concatenate(list(got)), logm_stack(ref))
        groups = []
        monkeypatch.setattr(harness, "_run_cells", lambda s, b, cells, stages, timed:
                            groups.extend(group for group, *_ in cells) or [])
        run_image(image_spec(d, mechanism=mechanism))
        mean_log = logm_stack(ref).mean(axis=0)
        want = vecd_stack(expm_stack(mean_log) if mechanism == "extrinsic_analytic" else mean_log)
        assert [g.n for g in groups] == [len(ref)]
        assert np.array_equal(groups[0].center, want)

    @pytest.mark.parametrize("mechanism", ["tangent_analytic", "extrinsic_analytic"])
    def test_class_larger_than_one_block(self, tmp_path, monkeypatch, blocks, mechanism):
        write_shapes(tmp_path / "c", [self.G8] * 10, seed=40)
        self.check_against_one_at_a_time(tmp_path / "c", monkeypatch, mechanism)
        assert blocks == [(3, 8, 8), (3, 8, 8), (3, 8, 8), (1, 8, 8)] * 2

    def test_buffers_built_once_per_size_run(self, tmp_path, monkeypatch, buffers):
        G8, G6 = self.G8, self.G6
        write_shapes(tmp_path / "c", [G8] * 10 + [G6] * 7 + [G8] * 2, seed=46)
        self.check_against_one_at_a_time(tmp_path / "c", monkeypatch)
        built, blocks = buffers
        once = [(3, 8, 8)] * 3 + [(1, 8, 8)] + [(2, 6, 11)] * 3 + [(1, 6, 11), (2, 8, 8)]
        assert blocks == once * 2
        # each run of one size builds one set, however many blocks it spans
        assert built == [G8, G6, G8] * 2

    def test_size_change_mid_block(self, tmp_path, monkeypatch, blocks):
        G8, G6 = self.G8, self.G6
        write_shapes(tmp_path / "c", [G8, G8, G6, G6, G6, G6, G8, G6, G6], seed=41)
        self.check_against_one_at_a_time(tmp_path / "c", monkeypatch)
        # a block ends at each size change and before it would exceed 3 * 576
        assert blocks == [(2, 8, 8), (2, 6, 11), (2, 6, 11), (1, 8, 8), (2, 6, 11)] * 2

    def test_unparseable_file_inside_block(self, tmp_path, monkeypatch, blocks, caplog):
        write_shapes(tmp_path / "c", [self.G8] * 7, seed=42, junk_at=2)
        with caplog.at_level("WARNING"):
            self.check_against_one_at_a_time(tmp_path / "c", monkeypatch)
        assert any("skipping" in m and "junk" in m for m in caplog.messages)
        assert blocks == [(3, 8, 8), (3, 8, 8), (1, 8, 8)] * 2

    def test_mixed_maxvals_and_bad_sample_inside_block(self, tmp_path, monkeypatch, blocks,
                                                      caplog):
        # each image scales by its own maxval; a sample above maxval is
        # skipped mid-block and the block fills from the next file
        rng = np.random.default_rng(45)
        d = tmp_path / "c"
        d.mkdir()
        for i, maxval in enumerate([255, 100, 100, 255, 100, 255, 255]):
            samples = rng.integers(0, maxval + 1, size=64, dtype=np.uint8)
            if i == 2:
                samples[17] = 200
            (d / f"{i:03d}.pgm").write_bytes(b"P5\n8 8\n%d\n" % maxval + samples.tobytes())
        with caplog.at_level("WARNING"):
            self.check_against_one_at_a_time(d, monkeypatch)
        skipped = [m for m in caplog.messages if m.startswith("skipping")]
        assert len(skipped) == 2  # once directly, once by run_image
        assert all("002.pgm" in m and "PNM sample 200 exceeds maxval 100" in m for m in skipped)
        assert blocks == [(3, 8, 8), (3, 8, 8)] * 2

    def test_single_image_larger_than_block(self, tmp_path, monkeypatch, blocks):
        monkeypatch.setattr(descriptors, "BLOCK_DOUBLES", 100)
        write_shapes(tmp_path / "c", [self.G8] * 3, seed=43)
        self.check_against_one_at_a_time(tmp_path / "c", monkeypatch)
        assert blocks == [(1, 8, 8)] * 6

    def test_one_logm_per_log_block(self, tmp_path, monkeypatch, blocks, log_blocks):
        # ten feature blocks of three images fit one log block of 204 (9, 9)
        # matrices, so the class makes one eigh call, not ten
        write_shapes(tmp_path / "c", [self.G8] * 30, seed=48)
        self.check_against_one_at_a_time(tmp_path / "c", monkeypatch)
        assert blocks == [(3, 8, 8)] * 10 * 2
        assert log_blocks == [30] * 2

    @pytest.mark.parametrize(
        "fold_doubles, sizes",
        [
            # four (9, 9) matrices round up to log blocks of two feature
            # blocks of 8x8 images (6) and of two of 6x11 images (4)
            (4 * 81, [6, 4, 4, 1]),
            # a log block of one (9, 9) matrix grows to one feature block
            (81, [3, 3, 3, 1, 2, 2, 1]),
        ],
    )
    def test_log_blocks_hold_whole_feature_blocks(self, tmp_path, monkeypatch, blocks,
                                                  log_blocks, fold_doubles, sizes):
        monkeypatch.setattr(descriptors, "_FOLD_DOUBLES", fold_doubles)
        write_shapes(tmp_path / "c", [self.G8] * 10 + [self.G6] * 5, seed=49)
        self.check_against_one_at_a_time(tmp_path / "c", monkeypatch)
        assert blocks == ([(3, 8, 8)] * 3 + [(1, 8, 8), (2, 6, 11), (2, 6, 11), (1, 6, 11)]) * 2
        # each run of one size ends its last log block
        assert log_blocks == sizes * 2

    @pytest.mark.parametrize("shape, sizes", [((28, 28, 1), [216, 1]), ((40, 40, 3), [140, 1])])
    def test_log_block_sizes_of_benchmark_images(self, tmp_path, log_blocks, shape, sizes):
        # 2^14 doubles are 202 (9, 9) or 135 (11, 11) matrices, rounded up to
        # whole feature blocks of 18 28x28 gray or 7 40x40 RGB images
        write_shapes(tmp_path / "c", [shape] * sum(sizes), seed=50)
        files = [str(p) for p in sorted((tmp_path / "c").iterdir())]
        params = DescriptorParams(eta=1e-6)
        logs = descriptors._class_logs("c", files, params, dict.fromkeys(STAGES + COUNTS, 0))
        assert [len(b) for b in logs] == sizes
        assert log_blocks == sizes

    def test_gray_rgb_mix_mid_block_names_class(self, tmp_path, blocks):
        write_shapes(tmp_path / "mix", [self.G8, self.G8, (8, 8, 3)], seed=44)
        with pytest.raises(DomainError, match="class 'mix' mixes gray and RGB"):
            run_image(image_spec(tmp_path, trials=1))


class TestImageSummaryMemory:
    def test_memory_does_not_grow_with_class_size(self, tmp_path, monkeypatch):
        # a class summary holds one block's buffers and block-sized arrays,
        # whatever the class size; only the list of file names grows, by
        # about 150 bytes a file, while each stack of (9, 9) descriptors or
        # their logs takes 648 bytes an image
        payload = np.random.default_rng(47).integers(0, 256, size=(3000, 64), dtype=np.uint8)
        specs = {}
        for n in (300, 3000):
            d = tmp_path / str(n)
            d.mkdir()
            for i, pixels in enumerate(payload[:n]):
                (d / f"{i:04d}.pgm").write_bytes(b"P5\n8 8\n255\n" + pixels.tobytes())
            specs[n] = image_spec(d)
        groups = []
        monkeypatch.setattr(harness, "_run_cells", lambda s, b, cells, stages, timed:
                            groups.extend(group for group, *_ in cells) or [])
        run_image(specs[300])  # warm numpy up
        small, large = peak_bytes(run_image, specs[300]), peak_bytes(run_image, specs[3000])
        assert [g.n for g in groups] == [300, 300, 3000]
        assert large - small <= 8 * 81 * (3000 - 300) / 2


class TestCsv:
    def test_header_and_single_record(self, tmp_path):
        rec = TrialRecord("tangent_analytic", 2, 0.1, 1e-6, 0, 0.5)
        path = tmp_path / "out.csv"
        emit_csv([rec], path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1] == "tangent_analytic,2,0.1,1e-06,0,0.5,0,"

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            emit_csv([], tmp_path / "x.csv")

    def test_acceptance_column_filled_for_mcmc(self):
        rec = TrialRecord("riemannian_laplace", 2, 0.1, 1e-6, 0, 0.5, 0, 0.62)
        assert render_csv([rec]).splitlines()[1].endswith(",0.62")

    def test_record_is_immutable_hashable_row(self):
        rec = TrialRecord("tangent_analytic", 2, 0.1, 1e-6, 3, 0.5)
        assert rec.wall_time_ns == 0 and rec.acceptance_ratio is None
        assert rec.sort_key() == ("tangent_analytic", 2, 0.1, 1e-6, 3)
        with pytest.raises(AttributeError):
            rec.utility = 1.0
        same = TrialRecord("tangent_analytic", 2, 0.1, 1e-6, 3, 0.5, 0, None)
        assert hash(rec) == hash(same) and len({rec, same}) == 1

    def test_numpy_scalars_render_as_python_scalars(self):
        plain = [
            TrialRecord("riemannian_laplace", 10, 0.1, 1e-6, t, 0.1 * t + 1 / 3, 7 * t, 0.25)
            for t in range(3)
        ] + [TrialRecord("tangent_analytic", 2, 0.2, 1e-5, 0, 2 / 3)]
        as_numpy = [
            TrialRecord(
                r.mechanism,
                np.int64(r.k),
                np.float64(r.epsilon),
                np.float64(r.delta),
                np.int64(r.trial),
                np.float64(r.utility),
                np.int64(r.wall_time_ns),
                None if r.acceptance_ratio is None else np.float64(r.acceptance_ratio),
            )
            for r in plain
        ]
        assert render_csv(as_numpy) == render_csv(plain)


class TestPlot:
    def test_svg_structure(self, tmp_path):
        records = run_synthetic(small_spec(trials=4))
        path = tmp_path / "plot.svg"
        emit_plot(records, path)
        svg = path.read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg and "polygon" in svg
        assert "tangent_analytic" in svg
        assert "epsilon" in svg

    def test_multi_k_uses_k_axis(self, tmp_path):
        records = []
        for k in (2, 4):
            records += run_synthetic(small_spec(k=k, trials=2, epsilon_grid=(0.1,)))
        path = tmp_path / "plot.svg"
        emit_plot(records, path)
        svg = path.read_text()
        assert ">k</text>" in svg

    def test_single_trial_band_degenerates(self, tmp_path):
        records = run_synthetic(small_spec(trials=1, epsilon_grid=(0.1,)))
        emit_plot(records, tmp_path / "one.svg")

    def test_band_uses_sample_stddev(self):
        from spdprivacy.plotting import _series

        records = [
            TrialRecord("tangent_analytic", 2, 0.1, 1e-6, i, u)
            for i, u in enumerate([1.0, 2.0, 3.0])
        ]
        label, series = _series(records)
        assert label == "epsilon"
        [(x, mean, std)] = series["tangent_analytic"]
        assert x == 0.1 and mean == 2.0
        assert std == pytest.approx(1.0)  # ddof=1 over {1,2,3}

    @pytest.mark.parametrize("scale", [1e195, 1e308])
    def test_huge_finite_utilities(self, tmp_path, scale):
        # squaring a deviation of 1e195 overflows, and so does the sum of
        # utilities near 1e308 and the band's top; the plot stays finite
        from spdprivacy.plotting import _series

        utilities = [0.5, 1.0, 1.7]
        records = [
            TrialRecord("tangent_classical", 2, 0.1, 1e-6, i, u * scale)
            for i, u in enumerate(utilities)
        ]
        [(_, mean, std)] = _series(records)[1]["tangent_classical"]
        assert mean == pytest.approx(scale * (sum(utilities) / 3), rel=1e-12)
        assert std == pytest.approx(scale * statistics.stdev(utilities), rel=1e-12)
        path = tmp_path / "huge.svg"
        emit_plot(records, path)
        svg = path.read_text()
        assert "inf" not in svg and "nan" not in svg

    @pytest.mark.parametrize("utilities", [[1e-323, 2e-323, 1e-323], [5e-324]])
    def test_tiny_utilities(self, tmp_path, utilities):
        # a tenth of the smallest mean rounds to 0; the axis floor stays the
        # smallest positive float
        records = [
            TrialRecord("tangent_analytic", 2, 0.1, 1e-6, i, u) for i, u in enumerate(utilities)
        ]
        path = tmp_path / "tiny.svg"
        emit_plot(records, path)
        svg = path.read_text()
        assert ">1e-323</text>" in svg and "inf" not in svg and "nan" not in svg

    @pytest.mark.parametrize(
        "utilities", [[3e-3, 1e-3, 2e-2, 5e-3], [1e-323, 2e-323], [1e307, 1e308]]
    )
    def test_gridlines_at_their_decades(self, tmp_path, utilities):
        # decade e is drawn at the height of log10 = e: the lowest and
        # highest at the ends of the axis, the rest evenly between
        records = [
            TrialRecord("tangent_analytic", 2, 0.1, 1e-6, i, u) for i, u in enumerate(utilities)
        ]
        path = tmp_path / "grid.svg"
        emit_plot(records, path)
        root = ET.parse(path).getroot()
        ys = [float(e.get("y1")) for e in root if e.get("stroke") == "#ddd"]
        labels = [e.text for e in root if e.get("text-anchor") == "end"]
        decades = [int(label[2:]) for label in labels]
        assert decades == list(range(decades[0], decades[-1] + 1)) and len(ys) == len(decades)
        assert ys[0] == 424.0 and ys[-1] == 24.0  # the axis's bottom and top
        step = (ys[0] - ys[-1]) / (len(ys) - 1)
        assert ys == pytest.approx([ys[0] - i * step for i in range(len(ys))], abs=0.01)

    def test_series_per_varying_cell_coordinate(self, tmp_path):
        # cells of different delta are separate series, never averaged
        from spdprivacy.plotting import _series

        records = run_synthetic(small_spec(epsilon_grid=(0.1, 0.2), delta_grid=(1e-2, 1e-12)))
        path = tmp_path / "delta.svg"
        emit_plot(records, path)
        root = ET.parse(path).getroot()
        lines = [e for e in root if e.tag.endswith("polyline")]
        assert len([e for e in root if e.tag.endswith("circle")]) == 4 and len(lines) == 2
        assert [e.get("stroke") for e in lines] == ["#2ca02c"] * 2  # the mechanism's colour
        assert [e.get("stroke-dasharray") for e in lines] == [None, "6 3"]
        texts = [e.text for e in root if e.tag.endswith("text")]
        assert "delta=0.01" in texts and "delta=1e-12" in texts
        # on a k axis, each epsilon is its own series
        records = [TrialRecord("tangent_analytic", k, eps, 1e-6, 0, 1.0)
                   for k in (9, 11) for eps in (0.1, 0.5)]
        label, series = _series(records)
        assert label == "k"
        assert list(series) == ["tangent_analytic epsilon=0.1", "tangent_analytic epsilon=0.5"]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            emit_plot([], tmp_path / "no.svg")


class TestCli:
    def test_calibrate_matches_library(self, capsys):
        assert main(
            [
                "calibrate",
                "--sensitivity",
                "1",
                "--eps",
                "0.5",
                "--delta",
                "1e-5",
                "--flavor",
                "classical",
            ]
        ) == 0
        out = capsys.readouterr().out.strip()
        want = calibrate_classical(
            Sensitivity(1.0, SensitivityKind.LOG_EUCLIDEAN), PrivacyBudget(0.5, 1e-5)
        )
        assert out == f"{want:.12g}"

    def test_calibrate_classical_epsilon_error(self, capsys):
        code = main(
            [
                "calibrate",
                "--sensitivity",
                "1",
                "--eps",
                "2",
                "--delta",
                "1e-5",
                "--flavor",
                "classical",
            ]
        )
        assert code == 2
        assert "epsilon < 1" in capsys.readouterr().err

    def test_calibrate_analytic_never_worse(self, capsys):
        for eps in ("0.2", "0.6"):
            main(["calibrate", "--sensitivity", "2", "--eps", eps, "--delta", "1e-6", "--flavor", "analytic"])
            ana = float(capsys.readouterr().out.strip())
            main(["calibrate", "--sensitivity", "2", "--eps", eps, "--delta", "1e-6", "--flavor", "classical"])
            cla = float(capsys.readouterr().out.strip())
            assert ana <= cla

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["calibrate", "--sensitivity", "1e303", "--eps", "1", "--delta", "1e-6"],
             "4.22467888933e+303"),
            (["calibrate", "--sensitivity", "1e-320", "--eps", "0.5", "--delta", "1e-6"],
             "8.05771661802e-320"),
        ],
    )
    def test_calibrate_analytic_bracket_leaves_float64(self, capsys, argv, want):
        assert main(argv + ["--flavor", "analytic"]) == 0
        assert capsys.readouterr().out.strip() == want

    def test_synthetic_bench_subnormal_radius(self, tmp_path):
        argv = ["synthetic-bench", "--k", "2", "--trials", "2", "--eps", "0.1", "--r", "1e-316"]
        assert main(argv + ["--out-csv", str(tmp_path / "u.csv")]) == 0
        assert (tmp_path / "u.csv").read_text().startswith(CSV_HEADER)

    def test_privatize_subnormal_radius(self, tmp_path, capsys):
        mat = tmp_path / "i2.txt"
        mat.write_text("1 0\n0 1\n")
        argv = ["privatize", "--matrix", str(mat), "--eps", "0.5", "--delta", "1e-6",
                "--n", "100", "--r", "1e-320"]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.split()) == 4

    def test_privatize_deterministic(self, tmp_path, capsys):
        mat = tmp_path / "m.txt"
        mat.write_text("2 1\n1 2\n")
        args = [
            "privatize",
            "--matrix",
            str(mat),
            "--mechanism",
            "tangent_analytic",
            "--eps",
            "0.5",
            "--delta",
            "1e-5",
            "--n",
            "100",
            "--r",
            "1.0",
            "--seed",
            "5",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        values = read_matrix_text(first)
        SpdMatrix(values)  # tangent mechanism output is SPD

    def test_privatize_laplace_output_is_spd(self, tmp_path, capsys):
        mat = tmp_path / "m.txt"
        mat.write_text("2 1\n1 2\n")
        code = main(
            [
                "privatize",
                "--matrix",
                str(mat),
                "--mechanism",
                "riemannian_laplace",
                "--eps",
                "0.5",
                "--delta",
                "1e-5",
                "--n",
                "100",
                "--r",
                "1.0",
                "--seed",
                "8",
                "--burn-in",
                "1000",
            ]
        )
        assert code == 0
        out = read_matrix_text(capsys.readouterr().out)
        SpdMatrix(out)

    def test_privatize_reads_csv_matrix(self, tmp_path, capsys):
        mat = tmp_path / "m.csv"
        mat.write_text("2,1\n1,2\n")
        assert (
            main(
                [
                    "privatize",
                    "--matrix",
                    str(mat),
                    "--mechanism",
                    "extrinsic_analytic",
                    "--eps",
                    "0.5",
                    "--delta",
                    "1e-5",
                    "--n",
                    "100",
                    "--r",
                    "1.0",
                ]
            )
            == 0
        )
        out = read_matrix_text(capsys.readouterr().out)
        assert out.shape == (2, 2)

    def test_synthetic_bench_golden_determinism(self, tmp_path):
        args = [
            "synthetic-bench",
            "--k",
            "2",
            "--n",
            "30",
            "--eps",
            "0.1,0.3",
            "--delta",
            "1e-6",
            "--trials",
            "3",
            "--seed",
            "11",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--out-csv", str(a)]) == 0
        assert main(args + ["--out-csv", str(b), "--threads", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_synthetic_bench_stdout_and_plot(self, tmp_path, capsys):
        plot = tmp_path / "p.svg"
        assert (
            main(
                [
                    "synthetic-bench",
                    "--k",
                    "2",
                    "--n",
                    "20",
                    "--eps",
                    "0.2",
                    "--delta",
                    "1e-6",
                    "--trials",
                    "2",
                    "--seed",
                    "1",
                    "--out-plot",
                    str(plot),
                ]
            )
            == 0
        )
        assert plot.exists()
        assert capsys.readouterr().out == ""  # plot requested, so no stdout CSV

    def test_image_bench_cli(self, tmp_path):
        corpus = tmp_path / "imgs"
        write_corpus(corpus, classes=("x", "y"))
        out = tmp_path / "img.csv"
        assert (
            main(
                [
                    "image-bench",
                    "--images",
                    str(corpus),
                    "--eps",
                    "0.9",
                    "--delta",
                    "1e-6",
                    "--trials",
                    "2",
                    "--seed",
                    "2",
                    "--out-csv",
                    str(out),
                ]
            )
            == 0
        )
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2

    def test_descriptor_command(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        img = RasterImage(rng.integers(0, 256, (8, 8, 1)) / 255.0)
        path = tmp_path / "i.pgm"
        save_pnm(img, path)
        assert main(["descriptor", "--image", str(path)]) == 0
        mat = read_matrix_text(capsys.readouterr().out)
        assert mat.shape == (9, 9)
        direct = covariance_descriptor(img).entries
        assert np.allclose(mat, direct, atol=1e-15)

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "k = 2\nn = 25\neps = 0.1\ndelta = 1e-6\ntrials = 2\nseed = 4\n"
            "mechanism = tangent_analytic\n# comment line\n"
        )
        base = ["synthetic-bench", "--config", str(cfg)]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        c = tmp_path / "c.csv"
        assert main(base + ["--out-csv", str(a)]) == 0
        assert main(base + ["--out-csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "0.1" in a.read_text()
        # explicit flag wins over the config value
        assert main(base + ["--out-csv", str(c), "--eps", "0.4"]) == 0
        assert "0.4" in c.read_text() and "0.1," not in c.read_text()

    def test_config_supplies_images(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_corpus(tmp_path / "corp", classes=("x",))
        (tmp_path / "c.cfg").write_text("images = corp\ntrials = 1\n")
        assert main(["image-bench", "--config", "c.cfg", "--out-csv", "a.csv"]) == 0
        assert main(["image-bench", "--images", "corp", "--trials", "1", "--out-csv", "b.csv"]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("value, want", [("TRUE", True), ("on", True), ("0", False), ("No", False)])
    def test_config_boolean_spellings(self, tmp_path, monkeypatch, value, want):
        seen = {}
        monkeypatch.setattr(cli, "run_synthetic",
                            lambda spec, threads, stages: seen.setdefault("spec", spec))
        monkeypatch.setattr(cli, "_emit", lambda records, args, stages: None)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"resample_data = {value}\n")
        assert main(["synthetic-bench", "--config", str(cfg)]) == 0
        assert seen["spec"].resample_data is want

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 1\n")
        assert main(["synthetic-bench", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_abbreviated_flag_rejected(self, tmp_path, capsys):
        # a prefix of --eps would otherwise lose to the config file's eps
        cfg = tmp_path / "ab.cfg"
        cfg.write_text("eps = 0.1\n")
        argv = ["synthetic-bench", "--k", "2", "--n", "20", "--trials", "1",
                "--config", str(cfg), "--ep", "0.4"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --ep 0.4" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("r", ["1e-161", "5e-162"])
    def test_plot_of_tiny_utilities(self, tmp_path, monkeypatch, r):
        # utilities near 1e-323: the CSV and the plot are both written
        monkeypatch.chdir(tmp_path)
        argv = ["synthetic-bench", "--k", "2", "--n", "500", "--r", r, "--eps", "0.1",
                "--trials", "3", "--seed", "1", "--out-csv", "u.csv", "--out-plot", "u.svg"]
        assert main(argv) == 0
        assert len((tmp_path / "u.csv").read_text().splitlines()) == 4
        assert ">1e-323</text>" in (tmp_path / "u.svg").read_text()

    def test_parser_built_once_per_process(self, capsys):
        cli.build_parser.cache_clear()
        argv = ["calibrate", "--sensitivity", "1", "--eps", "0.5", "--delta", "1e-5",
                "--flavor", "analytic"]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] != ""
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_bench_defaults_are_the_specs(self):
        parser = cli.build_parser()
        syn = parser.parse_args(["synthetic-bench"])
        assert cli._spec_from_args(syn) == ExperimentSpec(
            "synthetic", "tangent_analytic", (0.1,), (1e-6,))
        assert {name: getattr(syn, name) for name in SYNTHETIC_DEFAULTS} == SYNTHETIC_DEFAULTS
        assert [type(getattr(syn, name)) for name in ("n", "r", "k")] == [int, float, int]
        img = parser.parse_args(["image-bench", "--images", "x"])
        assert cli._spec_from_args(img) == ExperimentSpec(
            "image", "tangent_analytic", (0.1,), (1e-6,), image_dir="x")
        desc = parser.parse_args(["descriptor", "--image", "x"])
        priv = parser.parse_args(PRIVATIZE + ["--matrix", "x"])
        assert desc.eta == DescriptorParams.eta and priv.burn_in == ExperimentSpec.burn_in

    def test_timing_sidecar_needs_out_csv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(SYNTHETIC + ["--out-csv", "a.csv"]) == 0
        assert main(SYNTHETIC + ["--timing", "--out-plot", "a.svg"]) == 0
        assert main(SYNTHETIC + ["--timing"]) == 0
        assert capsys.readouterr().out.startswith(CSV_HEADER)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.svg"]
        assert main(SYNTHETIC + ["--timing", "--out-csv", "b.csv", "--out-plot", "b.svg"]) == 0
        sidecar = json.loads((tmp_path / "b.csv.manifest.json").read_text())
        assert list(sidecar) == ["stages_ns", "counts"]
        assert list(sidecar["stages_ns"]) == list(STAGES)
        assert list(sidecar["counts"]) == list(COUNTS)
        times = sidecar["stages_ns"]
        assert min(times["data"], times["release"], times["csv"], times["svg"]) > 0
        assert times["release"] <= times["cells"] and times["descriptors"] == times["logm"] == 0
        assert sidecar["counts"] == dict.fromkeys(COUNTS, 0) | {"matrices": 20}


def untimed(records):
    """``records`` with ``wall_time_ns`` zeroed, after checking that each
    record of a timed run has a positive one."""
    assert all(r.wall_time_ns > 0 for r in records)
    return [r._replace(wall_time_ns=0) for r in records]


class TestStageRecorder:
    """A run given a ``stages`` dict is timed: it adds its stage times and
    counts to it, and returns the records of a run without one but for
    their positive ``wall_time_ns``."""

    def test_synthetic_stages_and_counts(self):
        spec = small_spec()
        stages = {}
        assert untimed(run_synthetic(spec, stages=stages)) == run_synthetic(spec)
        assert list(stages) == list(STAGES + COUNTS)
        assert 0 < stages["data"] and 0 < stages["release"] <= stages["cells"]
        assert [stages[name] for name in ("descriptors", "logm", "csv", "svg")] == [0] * 4
        assert {name: stages[name] for name in COUNTS} == dict.fromkeys(COUNTS, 0) | {"matrices": 40}
        run_synthetic(spec, stages=stages)  # a second run adds to the first
        assert stages["matrices"] == 80

    def test_resampled_draws_nest_in_cells(self):
        spec = small_spec(resample_data=True, n=30, trials=4, epsilon_grid=(0.1, 0.2, 0.5))
        stages = {}
        assert untimed(run_synthetic(spec, stages=stages)) == run_synthetic(spec)
        assert stages["matrices"] == 30 * 4 * 3
        assert 0 < stages["data"] <= stages["cells"]

    def test_chain_steps_and_accepted_steps(self):
        spec = small_spec(mechanism="riemannian_laplace", burn_in=700, trials=3)
        stages = {}
        records = run_synthetic(spec, stages=stages)
        assert untimed(records) == run_synthetic(spec)
        assert stages["mcmc_steps"] == 700 * 3 * 2
        accepted = sum(r.acceptance_ratio for r in records) * 700
        assert 0 < stages["mcmc_accepted"] < stages["mcmc_steps"]
        assert stages["mcmc_accepted"] == pytest.approx(accepted, abs=1e-6)

    def test_image_stages_and_counts(self, tmp_path):
        write_corpus(tmp_path, classes=("a", "b"))
        (tmp_path / "a" / "junk.pgm").write_bytes(b"P2\n1 1\n255\n0\n")  # read, not parsed
        spec = image_spec(tmp_path)
        stages = {}
        assert untimed(run_image(spec, stages=stages)) == run_image(spec)
        assert list(stages) == list(STAGES + COUNTS)
        assert 0 < stages["descriptors"] <= stages["data"]
        assert 0 < stages["logm"] <= stages["data"]
        assert 0 < stages["release"] <= stages["cells"]
        files = [f for d in tmp_path.iterdir() for f in d.iterdir()]
        assert stages["images"] == len(files) - 1 == 800
        assert stages["bytes"] == sum(f.stat().st_size for f in files)
        assert stages["matrices"] == stages["mcmc_steps"] == 0


# (mechanism, epsilon, delta) of budgets that no run may use
BAD_BUDGETS = [
    ("tangent_analytic", 0.5, 2.0),
    ("tangent_analytic", -1.0, 1e-6),
    ("tangent_classical", 1.5, 1e-6),
]


class TestBudgetFailsFirst:
    """An invalid privacy budget fails before any data work: no synthetic
    dataset is drawn and no image file is read."""

    @pytest.fixture(autouse=True)
    def no_data_work(self, monkeypatch):
        def reached(*args):
            raise AssertionError("data work before the budget was checked")

        # the names the harness calls
        monkeypatch.setattr(harness, "_synthetic_blocks", reached)
        monkeypatch.setattr(harness, "_class_logs", reached)

    @pytest.fixture
    def image_dir(self, tmp_path):
        (tmp_path / "c").mkdir()
        (tmp_path / "c" / "x.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        return tmp_path

    @pytest.mark.parametrize("mechanism, eps, delta", BAD_BUDGETS)
    def test_synthetic(self, mechanism, eps, delta):
        spec = small_spec(mechanism=mechanism, epsilon_grid=(0.1, eps), delta_grid=(delta,))
        with pytest.raises(DomainError):
            run_synthetic(spec)

    @pytest.mark.parametrize("mechanism, eps, delta", BAD_BUDGETS)
    def test_image(self, image_dir, mechanism, eps, delta):
        spec = image_spec(image_dir, mechanism=mechanism, epsilon_grid=(0.1, eps),
                          delta_grid=(delta,))
        with pytest.raises(DomainError):
            run_image(spec)

    @pytest.mark.parametrize("command", ["synthetic-bench", "image-bench"])
    @pytest.mark.parametrize("mechanism, eps, delta", BAD_BUDGETS)
    def test_cli_exit_2(self, image_dir, capsys, command, mechanism, eps, delta):
        out = image_dir / "x.csv"
        data = {"synthetic-bench": ["--k", "30", "--n", "200000"],
                "image-bench": ["--images", str(image_dir)]}[command]
        argv = [command, *data, "--mechanism", mechanism, f"--eps={eps}", f"--delta={delta}",
                "--out-csv", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


PRIVATIZE = ["privatize", "--eps", "0.5", "--delta", "1e-6", "--n", "100", "--r", "1"]
SYNTHETIC = ["synthetic-bench", "--k", "2", "--n", "20", "--trials", "1"]


class TestCliInputErrors:
    """Malformed input ends in one ``error:`` line and exit code 2."""

    def check(self, argv, capsys, needle):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert needle in lines[0]
        assert captured.out == ""
        return lines[0]

    @pytest.mark.parametrize(
        "text, needle",
        [("2.0 0.3\n0.3\n", "rows differ in length"), ("2.0 0.3\n0.3 x\n", "line 2: 'x'")],
    )
    def test_malformed_matrix_file(self, tmp_path, capsys, text, needle):
        path = tmp_path / "m.txt"
        path.write_text(text)
        self.check(PRIVATIZE + ["--matrix", str(path)], capsys, needle)

    def test_non_numeric_grid(self, capsys):
        self.check(SYNTHETIC + ["--eps", "abc"], capsys, "--eps: 'abc' is not a valid float")

    @pytest.mark.parametrize("flag, value", [("--n", "3"), ("--r", "99"), ("--k", "7")])
    def test_image_bench_rejects_synthetic_flags(self, tmp_path, capsys, flag, value):
        # a class's n is its size, r the descriptors' bound and k 8 + channels
        with pytest.raises(SystemExit) as exit_info:
            main(["image-bench", "--images", str(tmp_path), flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{flag[2:]} = {value}\n")
        self.check(["image-bench", "--images", str(tmp_path), "--config", str(cfg)], capsys,
                   f"unknown config key {flag[2:]!r}")

    def test_image_bench_needs_images(self, capsys):
        # --images may come from a config file, so the spec checks for it
        self.check(["image-bench"], capsys, "image experiments require image_dir")

    def test_non_numeric_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("k = abc\n")
        self.check(["synthetic-bench", "--config", str(cfg)], capsys,
                   "config key 'k': 'abc' is not a valid int")

    @pytest.mark.parametrize(
        "line, needle",
        [
            ("func = x", "unknown config key 'func'"),
            ("command = calibrate", "unknown config key 'command'"),
            ("resample_data = nope", "config key 'resample_data': 'nope' is not one of"),
            ("resample_data = treu", "config key 'resample_data': 'treu' is not one of"),
        ],
    )
    def test_config_key_checked(self, tmp_path, capsys, line, needle):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        self.check(SYNTHETIC + ["--config", str(cfg)], capsys, needle)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_calibrate_sensitivity_not_finite(self, capsys, value):
        self.check(["calibrate", "--sensitivity", value, "--eps", "0.5", "--delta", "1e-6",
                    "--flavor", "analytic"], capsys,
                   f"sensitivity must be finite and nonnegative, got {value}")

    @pytest.mark.parametrize(
        "argv",
        [
            ["calibrate", "--sensitivity", "1", "--delta", "1e-6", "--flavor", "analytic"],
            SYNTHETIC,
        ],
    )
    def test_analytic_epsilon_without_finite_exp(self, capsys, argv):
        self.check(argv + ["--eps", "800"], capsys, "epsilon <= 709.783")

    @pytest.mark.parametrize(
        "argv",
        [
            ["calibrate", "--sensitivity", "1", "--delta", "1e-5", "--flavor", "classical"],
            SYNTHETIC + ["--mechanism", "tangent_classical"],
        ],
    )
    def test_classical_epsilon_names_no_function(self, capsys, argv):
        # a CLI user chooses the analytic calibration by a flag, not a call
        line = self.check(argv + ["--eps", "2"], capsys, "use the analytic calibration")
        assert "calibrate_analytic" not in line

    @pytest.mark.parametrize(
        "argv",
        [
            ["calibrate", "--sensitivity", "1", "--delta", "1e-6", "--flavor", "classical"],
            SYNTHETIC + ["--mechanism", "tangent_classical"],
            SYNTHETIC + ["--mechanism", "tangent_classical", "--out-plot", "never.svg"],
            SYNTHETIC + ["--mechanism", "riemannian_laplace"],
        ],
    )
    def test_noise_scale_overflows(self, tmp_path, monkeypatch, capsys, argv):
        # no inf utility reaches the CSV, and no plot is attempted
        monkeypatch.chdir(tmp_path)
        self.check(argv + ["--eps", "5e-324"], capsys, "noise scale overflows float64")
        assert not (tmp_path / "never.svg").exists()

    @pytest.mark.filterwarnings("error")
    def test_utility_overflows(self, tmp_path, monkeypatch, capsys):
        # sigma ~ 2e199 is finite, but sigma^2 chi^2 is not: no inf utility
        # reaches the CSV, no overflow warning reaches stderr, and no plot
        monkeypatch.chdir(tmp_path)
        argv = SYNTHETIC + ["--mechanism", "tangent_classical", "--eps", "1e-200",
                            "--out-plot", "never.svg"]
        self.check(argv, capsys, "utility overflows float64")
        assert not (tmp_path / "never.svg").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            SYNTHETIC + ["--mechanism", "riemannian_laplace", "--out-plot", "never.svg"],
            PRIVATIZE + ["--mechanism", "riemannian_laplace", "--n", "1", "--r", "0.25"],
        ],
    )
    def test_chain_proposal_overflows(self, tmp_path, monkeypatch, capsys, argv):
        # sigma ~ 1e299 is finite, but the chain's proposal variance is not
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "I2.txt"
        path.write_text("1 0\n0 1\n")
        if argv[0] == "privatize":
            argv = argv + ["--matrix", str(path)]
        self.check(argv + ["--eps", "1e-300"], capsys, "overflows float64 when squared")
        assert not (tmp_path / "never.svg").exists()

    @pytest.mark.parametrize("mechanism", ["tangent_classical", "riemannian_laplace"])
    def test_privatize_noise_scale_overflows(self, tmp_path, capsys, mechanism):
        # printed as a log-chart release this would be a matrix of -inf
        path = tmp_path / "I2.txt"
        path.write_text("1 0\n0 1\n")
        argv = ["privatize", "--matrix", str(path), "--n", "1", "--r", "0.25", "--eps", "1e-310",
                "--delta", "1e-6", "--mechanism", mechanism, "--output", "log"]
        self.check(argv, capsys, "noise scale overflows float64")

    def test_privatize_extrinsic_sensitivity_overflows(self, tmp_path, capsys):
        # e^709 is finite, but 2 * 709 * e^709 / 1 is not
        path = tmp_path / "m.txt"
        path.write_text("2.0 0.3\n0.3 1.5\n")
        argv = [*PRIVATIZE, "--mechanism", "extrinsic_analytic", "--r", "709", "--n", "1",
                "--matrix", str(path)]
        self.check(argv, capsys, "sensitivity must be finite and nonnegative, got inf")

    def test_measured_radius_removed(self, tmp_path, capsys):
        # the radius, and so sigma, comes from a public bound, never the data
        with pytest.raises(SystemExit) as exit_info:
            main(SYNTHETIC + ["--measured-radius"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --measured-radius" in capsys.readouterr().err
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("measured_radius = true\n")
        self.check(SYNTHETIC + ["--config", str(cfg)], capsys,
                   "unknown config key 'measured_radius'")

    def test_duplicate_grid_value(self, capsys):
        self.check(SYNTHETIC + ["--eps", "0.1,0.1"], capsys, "epsilon_grid has duplicate values")

    def test_k_above_cap(self, capsys):
        self.check(SYNTHETIC + ["--k", "300"], capsys, "k <= 256")

    @pytest.mark.parametrize("r", ["inf", "800", "1e308"])
    def test_radius_without_finite_exp(self, capsys, r):
        self.check(SYNTHETIC + ["--r", r], capsys, "e^r is finite")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one(self, capsys, threads):
        self.check(SYNTHETIC + ["--threads", threads], capsys, "threads must be >= 1")

    def test_extrinsic_radius_without_finite_exp(self, capsys):
        # the extrinsic sensitivity takes e^radius, here with radius sqrt(2) * 700
        self.check(SYNTHETIC + ["--mechanism", "extrinsic_analytic", "--r", "700"], capsys,
                   "e^r is finite")

    @pytest.mark.parametrize("mechanism", ["tangent_analytic", "riemannian_laplace"])
    def test_privatize_release_not_representable(self, tmp_path, capsys, mechanism):
        # the log-chart release is finite; its exponential is not an SPD
        # matrix float64 can resolve, which is no fault of the input matrix
        path = tmp_path / "I2.txt"
        path.write_text("1 0\n0 1\n")
        argv = ["privatize", "--matrix", str(path), "--n", "1", "--r", "0.25", "--eps", "0.01",
                "--delta", "1e-6", "--mechanism", mechanism]
        line = self.check(argv, capsys, "release is not representable in float64")
        assert "positive definite" not in line
        assert "--output log" in line
        # the log-chart release itself prints
        assert main(argv + ["--output", "log"]) == 0
        out = capsys.readouterr()
        assert out.err == "" and read_matrix_text(out.out).shape == (2, 2)

    def test_privatize_output_log_rejected_for_extrinsic(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("2.0 0.3\n0.3 1.5\n")
        self.check(PRIVATIZE + ["--mechanism", "extrinsic_analytic", "--output", "log",
                                "--matrix", str(path)], capsys, "--output log needs a log-chart")

    @pytest.mark.parametrize(
        "mechanism", ["tangent_classical", "tangent_analytic", "riemannian_laplace"]
    )
    def test_privatize_output_log_is_log_of_matrix(self, tmp_path, capsys, mechanism):
        # the printed log-matrix is invvecd(z) of the same release, so its
        # exponential is the default output, bit for bit
        path = tmp_path / "m.txt"
        path.write_text("2.0 0.3\n0.3 1.5\n")
        argv = PRIVATIZE + ["--mechanism", mechanism, "--burn-in", "500", "--matrix", str(path)]
        assert main(argv) == 0
        matrix = read_matrix_text(capsys.readouterr().out)
        assert main(argv + ["--output", "log"]) == 0
        log_matrix = read_matrix_text(capsys.readouterr().out)
        assert np.array_equal(log_matrix, log_matrix.T)
        assert np.array_equal(expm_stack(log_matrix), matrix)

    def test_privatize_extrinsic_radius_without_finite_exp(self, tmp_path, capsys):
        path = tmp_path / "m.txt"
        path.write_text("2.0 0.3\n0.3 1.5\n")
        self.check(PRIVATIZE + ["--mechanism", "extrinsic_analytic", "--r", "710",
                                "--matrix", str(path)], capsys, "e^r is finite")

    @pytest.mark.parametrize(
        "argv, flag",
        [(PRIVATIZE, "--matrix"), (["descriptor"], "--image"), (["synthetic-bench"], "--config")],
    )
    def test_missing_input_file(self, tmp_path, capsys, argv, flag):
        missing = tmp_path / "nope"
        self.check(argv + [flag, str(missing)], capsys, f"No such file or directory: '{missing}'")


# extreme finite floats: the largest, two more whose x + x overflows, the
# smallest normal and subnormal, 0 and 1, and their negatives
EDGE_FLOATS = (1.7976931348623157e308, 1.7e308, 1e308, 2.2250738585072014e-308, 5e-324, 0.0, 1.0)
edge_floats = st.sampled_from(EDGE_FLOATS + tuple(-v for v in EDGE_FLOATS)) | st.floats(
    allow_nan=False, allow_infinity=False
)


class TestFloat64Edge:
    """A symmetric input anywhere in float64 releases finite numbers or ends in
    one ``error:`` line with exit code 2; it never prints NaN."""

    @staticmethod
    def privatize(path, entries, output, mechanism="tangent_analytic"):
        path.write_text(cli.format_matrix(np.array(entries)))
        argv = ["--matrix", str(path), "--output", output, "--mechanism", mechanism]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning would be a second stderr line
                code = main(PRIVATIZE + argv)
        return code, out.getvalue(), err.getvalue()

    def test_log_release_of_huge_diagonal(self, tmp_path):
        # 1e308 + 1e308 overflows, but the matrix and its log (709.2) are fine
        code, out, err = self.privatize(tmp_path / "m.txt", np.diag([1e308, 1e308]), "log")
        assert (code, err) == (0, "")
        released = read_matrix_text(out)
        assert np.isfinite(released).all()
        assert np.allclose(np.diag(released), math.log(1e308), atol=1.0)

    def test_matrix_release_of_huge_diagonal(self, tmp_path):
        # log-eigenvalues near 709.1, above 700 but below ln(float64 max)
        code, out, err = self.privatize(tmp_path / "m.txt", np.diag([1e308, 1e308]), "matrix")
        assert (code, err) == (0, "")
        released = read_matrix_text(out)
        assert np.isfinite(released).all() and np.all(np.diag(released) > 1e307)

    def test_log_release_of_eigenvalue_beyond_float64(self, tmp_path):
        # eigenvalues 2.9e307 and 2.4e308 (log 707.96 and 710.08): the top one
        # overflows float64, the log chart does not
        big = [[1e308, 1e308], [1e308, 1.7e308]]
        code, out, err = self.privatize(tmp_path / "m.txt", big, "log")
        assert (code, err) == (0, "")
        log_eigs = np.linalg.eigvalsh(read_matrix_text(out))
        assert np.allclose(log_eigs, [707.96, 710.08], atol=1.0)

    def test_extrinsic_release_of_eigenvalue_beyond_float64(self, tmp_path):
        # the extrinsic row centers on expm(logm S), whose top log-eigenvalue
        # 710.08 exceeds ln(float64 max) while every entry of S is finite
        big = [[1e308, 1e308], [1e308, 1.7e308]]
        code, out, err = self.privatize(tmp_path / "m.txt", big, "matrix", "extrinsic_analytic")
        assert (code, err) == (0, "")
        assert np.allclose(read_matrix_text(out), big, rtol=1e-12, atol=0.0)

    def test_extrinsic_center_beyond_float64(self, tmp_path):
        # the extrinsic center's off-diagonal coordinate sqrt(2) * 1.7e308 is
        # not a float64: one error line, no overflow warning
        big = [[1.7976931348623157e308, 1.7e308], [1.7e308, 1.7976931348623157e308]]
        code, out, err = self.privatize(tmp_path / "m.txt", big, "matrix", "extrinsic_analytic")
        assert (code, out) == (2, "")
        assert err.startswith("error: vecd coordinates overflow float64") and err.count("\n") == 1

    @given(a=edge_floats, b=edge_floats, c=edge_floats)
    @example(a=1.7976931348623157e308, b=1.7e308, c=1.7976931348623157e308)
    @settings(max_examples=200)
    def test_privatize_extreme_inputs(self, tmp_path_factory, a, b, c):
        path = tmp_path_factory.getbasetemp() / "edge_matrix.txt"
        runs = [("matrix", "tangent_analytic"), ("log", "tangent_analytic")]
        for output, mechanism in runs + [("matrix", "extrinsic_analytic")]:
            code, out, err = self.privatize(path, [[a, b], [b, c]], output, mechanism)
            if code == 0:
                assert err == ""
                values = [float(tok) for tok in out.split()]
                assert len(values) == 4 and all(map(math.isfinite, values)), out
            else:
                lines = err.splitlines()
                assert (code, out, len(lines)) == (2, "", 1), err
                assert lines[0].startswith("error: ")


def read_matrix_text(text):
    rows = [
        [float(tok) for tok in line.split()]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    return np.array(rows)
