import math

import numpy as np
import pytest

from spdprivacy import harness
from spdprivacy.cli import main, read_matrix
from spdprivacy.descriptors import (
    DescriptorParams,
    RasterImage,
    covariance_descriptor,
    load_pnm,
    save_pnm,
)
from spdprivacy.errors import DomainError
from spdprivacy.geometry import SpdMatrix, frechet_mean_le, le_distance, logm_stack
from spdprivacy.harness import (
    CSV_HEADER,
    ExperimentSpec,
    TrialRecord,
    emit_csv,
    render_csv,
    run_image,
    run_synthetic,
)
from spdprivacy.mechanisms import (
    PrivacyBudget,
    Sensitivity,
    SensitivityKind,
    calibrate_analytic,
    calibrate_classical,
)
from spdprivacy.plotting import emit_plot


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

    def test_image_needs_dir(self):
        with pytest.raises(DomainError):
            ExperimentSpec(
                kind="image",
                mechanism="tangent_analytic",
                epsilon_grid=(0.1,),
                delta_grid=(1e-6,),
            )


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

    def test_resample_data_redraws_summary_not_utilities(self, monkeypatch):
        # the noise substream does not depend on the data and the utility
        # ||z - c||^2 is translation invariant, so redrawing the summary c
        # per trial leaves every utility unchanged up to rounding
        centers = []
        release = harness.gaussian_release

        def spy(rng, center, sigma):
            centers.append(center)
            return release(rng, center, sigma)

        monkeypatch.setattr(harness, "gaussian_release", spy)
        for mechanism in ("tangent_analytic", "extrinsic_analytic"):
            centers.clear()
            fixed = run_synthetic(small_spec(mechanism=mechanism))
            fixed_centers = list(centers)
            centers.clear()
            resampled = run_synthetic(small_spec(mechanism=mechanism, resample_data=True))
            trials = len(fixed)
            assert len(fixed_centers) == len(centers) == trials
            assert all(c is fixed_centers[0] for c in fixed_centers)
            distinct = {tuple(c) for c in centers}
            assert len(distinct) == trials and tuple(fixed_centers[0]) not in distinct
            assert [r.utility for r in resampled] == pytest.approx(
                [r.utility for r in fixed], rel=1e-12, abs=0.0
            )

    def test_measured_radius_shrinks_noise(self):
        # observed radius <= sqrt(k) r, so sensitivity and mean utility drop
        fixed = run_synthetic(small_spec(trials=40))
        measured = run_synthetic(small_spec(trials=40, measured_radius=True))
        mean_fixed = np.mean([r.utility for r in fixed])
        mean_measured = np.mean([r.utility for r in measured])
        assert mean_measured <= mean_fixed

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

    def test_utility_law_at_harness_level(self):
        # sample mean of utility / sigma^2 approaches d = 3 at rate n^-1/2
        spec = small_spec(
            mechanism="tangent_classical",
            epsilon_grid=(0.1,),
            delta_grid=(1e-6,),
            trials=10**4,
            n=30,
            seed=7,
        )
        records = run_synthetic(spec, threads=2)
        sens = Sensitivity(
            2 * math.sqrt(spec.k) * spec.r / spec.n, SensitivityKind.LOG_EUCLIDEAN
        )
        sigma = calibrate_classical(sens, PrivacyBudget(0.1, 1e-6))
        scaled = np.array([r.utility for r in records]) / sigma**2
        assert abs(scaled.mean() - 3.0) / 3.0 <= 0.05
        # the paper-style 1000-trial average lands within 10% of sigma^2 d
        assert abs(scaled[:1000].mean() - 3.0) / 3.0 <= 0.10

    def test_timing_recorded_only_on_request(self):
        silent = run_synthetic(small_spec(trials=1))
        assert all(r.wall_time_ns == 0 for r in silent)
        timed = run_synthetic(small_spec(trials=1, record_timing=True))
        assert all(r.wall_time_ns > 0 for r in timed)

    def test_tangent_much_faster_than_mcmc(self):
        tangent = run_synthetic(
            small_spec(
                k=10, trials=5, epsilon_grid=(0.1,), record_timing=True
            )
        )
        laplace = run_synthetic(
            small_spec(
                k=10,
                trials=5,
                epsilon_grid=(0.1,),
                mechanism="riemannian_laplace",
                burn_in=10000,
                record_timing=True,
            )
        )
        fast = min(r.wall_time_ns for r in tangent)
        slow = min(r.wall_time_ns for r in laplace)
        assert slow >= 100 * fast


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
        from spdprivacy.harness import _sensitivity

        bound = descriptor_radius_bound(1, 1e-6)
        sens = _sensitivity("tangent_analytic", 1000, bound)
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
    """``run_image`` streams a class through ``descriptor_stack`` in blocks;
    the result must not depend on where the blocks fall."""

    G8, G6 = (8, 8, 1), (6, 11, 1)  # 576 and 594 feature values per image

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Cap blocks at three 8x8 gray images and record each block's shape
        (each class is streamed twice per check: directly and by run_image)."""
        monkeypatch.setattr(harness, "BLOCK_DOUBLES", 3 * 576)
        shapes = []
        real = harness.descriptor_stack

        def spy(stack, params):
            shapes.append(stack.shape[:3])
            return real(stack, params)

        monkeypatch.setattr(harness, "descriptor_stack", spy)
        return shapes

    def check_against_one_at_a_time(self, d, monkeypatch, mechanism="tangent_analytic"):
        """Same n, descriptor order and center as descriptors computed one
        image at a time."""
        params = DescriptorParams(eta=1e-6)
        ref = []
        for path in sorted(d.iterdir()):
            try:
                ref.append(covariance_descriptor(load_pnm(path), params).entries)
            except DomainError:
                continue
        ref = np.stack(ref)
        got = harness._class_descriptors("c", sorted(d.iterdir()), params)
        assert got.shape == ref.shape
        for g, r in zip(got, ref):
            assert np.linalg.norm(g - r) <= 1e-12 * np.linalg.norm(r)
        groups = []
        monkeypatch.setattr(harness, "_run_cells", lambda s, b, gs, t: groups.extend(gs) or [])
        run_image(image_spec(d, mechanism=mechanism))
        want = harness._center(mechanism, logm_stack(ref))
        assert [g.n for g in groups] == [len(ref)]
        np.testing.assert_allclose(groups[0].center, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("mechanism", ["tangent_analytic", "extrinsic_analytic"])
    def test_class_larger_than_one_block(self, tmp_path, monkeypatch, blocks, mechanism):
        write_shapes(tmp_path / "c", [self.G8] * 10, seed=40)
        self.check_against_one_at_a_time(tmp_path / "c", monkeypatch, mechanism)
        assert blocks == [(3, 8, 8), (3, 8, 8), (3, 8, 8), (1, 8, 8)] * 2

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

    def test_single_image_larger_than_block(self, tmp_path, monkeypatch, blocks):
        monkeypatch.setattr(harness, "BLOCK_DOUBLES", 100)
        write_shapes(tmp_path / "c", [self.G8] * 3, seed=43)
        self.check_against_one_at_a_time(tmp_path / "c", monkeypatch)
        assert blocks == [(1, 8, 8)] * 6

    def test_gray_rgb_mix_mid_block_names_class(self, tmp_path, blocks):
        write_shapes(tmp_path / "mix", [self.G8, self.G8, (8, 8, 3)], seed=44)
        with pytest.raises(DomainError, match="class 'mix' mixes gray and RGB"):
            run_image(image_spec(tmp_path, trials=1))


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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 1\n")
        assert main(["synthetic-bench", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err


def read_matrix_text(text):
    rows = [
        [float(tok) for tok in line.split()]
        for line in text.strip().splitlines()
        if line.strip()
    ]
    return np.array(rows)
