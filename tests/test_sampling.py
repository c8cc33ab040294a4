import math

import numpy as np
import pytest
from scipy import stats

from spdprivacy.errors import DimensionError, DomainError
from spdprivacy.geometry import (
    SpdMatrix,
    _FOLD_DOUBLES,
    _mean_log,
    expm_stack,
    identity,
    le_add,
    logm_stack,
    vecd_stack,
)
from spdprivacy.mechanisms import MECHANISMS, tangent_gaussian_stack
from spdprivacy.sampling import RngState, _synthetic_blocks, sample_synthetic_spd

from conftest import one_shot_logs, peak_bytes, signed_haar_basis


class TestRngState:
    def test_replay_bit_identical(self):
        a = RngState(42)
        b = RngState(42)
        va = tangent_gaussian_stack(a, identity(3), 1.0, 5)
        qa = _mean_log(_synthetic_blocks(a, 3, 0.25, 2))[0]
        vb = tangent_gaussian_stack(b, identity(3), 1.0, 5)
        qb = _mean_log(_synthetic_blocks(b, 3, 0.25, 2))[0]
        assert np.array_equal(va, vb)
        assert np.array_equal(qa, qb)

    def test_substreams_differ_and_replay(self):
        root = RngState(42)
        s1 = root.substream(0, 1)
        s2 = root.substream(0, 2)
        s1_again = RngState(42).substream(0, 1)
        v1 = s1.generator.standard_normal(4)
        v2 = s2.generator.standard_normal(4)
        v1_again = s1_again.generator.standard_normal(4)
        assert not np.array_equal(v1, v2)
        assert np.array_equal(v1, v1_again)

    def test_seed_range_validated(self):
        with pytest.raises(DomainError):
            RngState(-1)
        with pytest.raises(DomainError):
            RngState(2**64)

    @pytest.mark.parametrize("bad", [-1, 1.5, 2.0, np.float64(3.0), "4", None, np.int64(-2)])
    def test_path_elements_validated(self, bad):
        # negative or non-integral elements are rejected, never truncated
        with pytest.raises(DomainError):
            RngState(1).substream(bad)
        with pytest.raises(DomainError):
            RngState(1, (0, bad))

    @pytest.mark.parametrize("path", [(np.int64(5),), (2**32,), (2**32 + 5, 1), (2**70, 0)])
    def test_integer_path_elements_accepted(self, path):
        # elements of any size are accepted; those >= 2**32 take several words
        sub = RngState(1).substream(*path)
        assert sub.stream == tuple(int(p) for p in path)

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("path", [(), (1,), (1, 3), (1, 2**32 + 5), (2**64 + 7, 0, 2)])
    def test_substream_tree(self, seed, path):
        # forking one element at a time reaches the stream of one fork of the
        # whole path; that stream differs from its child, its next sibling
        # and the same path under the next seed
        stepwise = RngState(seed)
        for p in path:
            stepwise = stepwise.substream(p)
        whole = RngState(seed).substream(*path)
        assert stepwise.stream == whole.stream == path
        draws = whole.generator.standard_normal(8)
        assert np.array_equal(stepwise.generator.standard_normal(8), draws)
        others = [RngState(seed, path + (0,)), RngState((seed + 1) % 2**64, path)]
        if path:
            others.append(RngState(seed, path[:-1] + (path[-1] + 1,)))
        for other in others:
            assert not np.array_equal(other.generator.standard_normal(8), draws)


    def test_sibling_substreams_independent(self):
        # 64 sibling noise substreams (1, cell): every pairwise correlation
        # is within 5 standard errors of 0, and the pooled draws are N(0, 1)
        n = 4096
        draws = np.stack(
            [RngState(2024).substream(1, cell).generator.standard_normal(n) for cell in range(64)]
        )
        rho = np.corrcoef(draws)[np.triu_indices(64, 1)]
        assert np.max(np.abs(rho)) < 5 / math.sqrt(n)
        assert stats.kstest(draws.ravel(), stats.norm.cdf).pvalue > 0.01


class TestGaussianRelease:
    ROW = MECHANISMS["tangent_analytic"]

    def test_moments_match_standard_errors(self):
        draws = self.ROW.release(RngState(7), np.zeros(1), 1.0, 10**5)[0][:, 0]
        assert abs(draws.mean()) <= 0.01
        assert abs(draws.var(ddof=1) - 1.0) <= 0.015

    def test_shape_validated(self):
        rng = RngState(1)
        with pytest.raises(DimensionError):
            self.ROW.release(rng, np.zeros((2, 3)), 1.0)
        with pytest.raises(DimensionError):
            self.ROW.release(rng, np.zeros(0), 1.0)
        with pytest.raises(DimensionError):
            self.ROW.release(rng, np.zeros((4, 2)), 1.0, 4)
        with pytest.raises(DomainError):
            self.ROW.release(rng, np.zeros(3), -1.0)

    @pytest.mark.parametrize("center_shape", [(6,), (5, 6)])
    def test_release_is_center_plus_scaled_noise(self, center_shape):
        # each element is center + (sigma * noise) of the (trials, d) normal draw
        center = np.random.default_rng(3).standard_normal(center_shape)
        noise = RngState(4).generator.standard_normal((5, 6))
        z, ratio = self.ROW.release(RngState(4), center, 0.7, 5)
        assert ratio is None and np.array_equal(z, center + 0.7 * noise)


class TestHaarOrthogonal:
    """The reference :func:`signed_haar_basis` is Haar; the synthetic
    generator equals it bit for bit (test_spd_equals_sign_fixed_construction)."""

    def test_orthogonality(self):
        rng = RngState(3)
        for k in (1, 2, 5, 12):
            q = signed_haar_basis(rng.generator.standard_normal((k, k)))
            assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-10

    def test_k1_sign_symmetry(self):
        gauss = RngState(5).generator.standard_normal((10**4, 1, 1))
        signs = np.array([signed_haar_basis(g)[0, 0] for g in gauss])
        assert set(np.unique(signs)) <= {-1.0, 1.0}
        assert abs((signs > 0).mean() - 0.5) <= 0.02

    def test_k2_first_column_angle_uniform(self):
        gauss = RngState(9).generator.standard_normal((10**4, 2, 2))
        angles = np.array([math.atan2(*signed_haar_basis(g)[:, 0][::-1]) for g in gauss])
        pvalue = stats.kstest(angles, stats.uniform(-math.pi, 2 * math.pi).cdf).pvalue
        assert pvalue > 0.01


class TestLogGaussianLaw:
    """The tangent Gaussian mechanism samples LN(M, sigma^2 I)."""

    def test_stack_matches_scalar_law(self):
        # the bulk sampler and the scalar sampler share one distribution
        mean, sigma = SpdMatrix([[2.0, 0.4], [0.4, 1.0]]), 0.7
        row = MECHANISMS["tangent_analytic"]
        center = row.center(logm_stack(mean.entries))
        releases = (row.release(RngState(61).substream(i), center, sigma)[0] for i in range(2000))
        scalar = np.array(
            [np.sum(logm_stack(row.export(z[0], 2).entries) ** 2) for z in releases]
        )
        bulk = tangent_gaussian_stack(RngState(67), mean, sigma, 2000)
        bulk_stat = np.sum(logm_stack(bulk) ** 2, axis=(1, 2))
        assert stats.ks_2samp(scalar, bulk_stat).pvalue > 0.01

    def test_chi_square_norm_law(self):
        # ||log X||_F^2 for X ~ LN(I, I) is chi^2 with k(k+1)/2 dof
        rng = RngState(13)
        n = 10**5
        draws = tangent_gaussian_stack(rng, identity(2), 1.0, n)
        sq = np.sum(logm_stack(draws) ** 2, axis=(1, 2))
        d = 3
        assert abs(sq.mean() - d) <= 3.0 * math.sqrt(2.0 * d / n)
        assert stats.kstest(sq, stats.chi2(d).cdf).pvalue > 0.01

    def test_inner_product_law(self):
        # <log C, log X>_F ~ N(0, sigma^2 ||log C||_F^2)
        rng = RngState(17)
        c = SpdMatrix([[3.0, 1.0], [1.0, 1.0]])
        log_c = logm_stack(c.entries)
        scale2 = float(np.sum(log_c**2))
        n = 10**5
        draws = tangent_gaussian_stack(rng, identity(2), 1.0, n)
        vals = np.sum(log_c * logm_stack(draws), axis=(1, 2))
        assert abs(vals.mean()) <= 3.0 * math.sqrt(scale2 / n)
        assert stats.kstest(vals, stats.norm(0.0, math.sqrt(scale2)).cdf).pvalue > 0.01

    def test_chi_square_gof_k2_k5(self):
        for k, seed in ((2, 31), (5, 37)):
            rng = RngState(seed)
            d = k * (k + 1) // 2
            sigma = 0.7
            n = 2 * 10**4
            draws = tangent_gaussian_stack(rng, identity(k), sigma, n)
            sq = np.sum(logm_stack(draws) ** 2, axis=(1, 2)) / sigma**2
            assert stats.kstest(sq, stats.chi2(d).cdf).pvalue > 0.01

    def test_shift_compatibility_two_sample(self):
        # X ~ LN(I, s^2 I) then X (+) M matches LN(M, s^2 I) in law
        rng = RngState(23)
        m = SpdMatrix([[2.0, 0.5], [0.5, 1.5]])
        log_m = logm_stack(m.entries)
        sigma = 0.8
        n = 10**4
        base = tangent_gaussian_stack(rng, identity(2), sigma, n)
        shifted = expm_stack(logm_stack(base) + log_m)  # le_add, vectorised
        direct = tangent_gaussian_stack(rng, m, sigma, n)
        stat_shift = np.linalg.norm(vecd_stack(logm_stack(shifted) - log_m), axis=1)
        stat_direct = np.linalg.norm(vecd_stack(logm_stack(direct) - log_m), axis=1)
        assert stats.ks_2samp(stat_shift, stat_direct).pvalue > 0.01
        # spot-check: the vectorised shift agrees with le_add elementwise
        one = SpdMatrix(base[0])
        assert np.allclose(le_add(one, m).entries, shifted[0], atol=1e-10)

    @pytest.mark.parametrize("k,seed", [(2, 101), (5, 103)])
    def test_chart_offsets_mean_zero_covariance_sigma2(self, k, seed):
        # vecd(log X) - vecd(log M) ~ N(0, sigma^2 I_d): each sample mean and
        # covariance entry within 4 standard errors of its value
        m = sample_synthetic_spd(RngState(seed), k, 0.5)
        sigma, n = 0.6, 2 * 10**4
        d = k * (k + 1) // 2
        draws = tangent_gaussian_stack(RngState(seed).substream(1), m, sigma, n)
        offsets = vecd_stack(logm_stack(draws) - logm_stack(m.entries))
        assert np.all(np.abs(offsets.mean(axis=0)) <= 4.0 * sigma / math.sqrt(n))
        cov = np.cov(offsets, rowvar=False)
        off_diag = cov[~np.eye(d, dtype=bool)]
        assert np.all(np.abs(np.diag(cov) - sigma**2) <= 4.0 * sigma**2 * math.sqrt(2.0 / n))
        assert np.all(np.abs(off_diag) <= 4.0 * sigma**2 / math.sqrt(n))


class TestSyntheticGenerator:
    def test_ball_guarantee(self):
        rng = RngState(43)
        k, r = 5, 0.25
        bound = math.sqrt(k) * r
        for _ in range(300):
            x = sample_synthetic_spd(rng, k, r)
            assert np.linalg.norm(logm_stack(x.entries)) <= bound * (1 + 1e-12) + 1e-12

    def test_tiny_radius_near_identity(self):
        x = sample_synthetic_spd(RngState(47), 4, 1e-12)
        assert np.max(np.abs(x.entries - np.eye(4))) <= 1e-10

    def test_k1_eigenvalues_uniform(self):
        rng = RngState(53)
        r = 0.5
        vals = np.array(
            [sample_synthetic_spd(rng, 1, r).entries[0, 0] for _ in range(10**4)]
        )
        lo, hi = math.exp(-r), math.exp(r)
        assert stats.kstest(vals, stats.uniform(lo, hi - lo).cdf).pvalue > 0.01

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            sample_synthetic_spd(RngState(1), 3, 0.0)
        with pytest.raises(DimensionError):
            sample_synthetic_spd(RngState(1), 0, 1.0)

    @pytest.mark.parametrize("k", [1, 2, 10, 30])
    def test_spd_equals_sign_fixed_construction(self, k):
        # the sign fix flips columns of E by +-1, which cancels bit for bit
        rng, ref = RngState(83), RngState(83)
        for _ in range(20):
            got = sample_synthetic_spd(rng, k, 0.25).entries
            lam = ref.generator.uniform(math.exp(-0.25), math.exp(0.25), size=k)
            basis = signed_haar_basis(ref.generator.standard_normal((k, k)))
            mat = (basis * lam) @ basis.T
            assert np.array_equal(got, 0.5 * (mat + mat.T))

    @pytest.mark.parametrize("k", [2, 10, 30])
    def test_logs_rebuilt_from_block_draws(self, k):
        # the stream is all n*k uniforms, then all n*k*k normals; the
        # reference equals the streamed summary (TestStreamedSummary)
        rng, ref = RngState(71), RngState(71)
        logs = one_shot_logs(rng, k, 0.25, 50)
        assert logs.shape == (50, k, k)
        lam = ref.generator.uniform(math.exp(-0.25), math.exp(0.25), size=(50, k))
        gauss = ref.generator.standard_normal((50, k, k))
        for i in range(50):
            basis = signed_haar_basis(gauss[i])
            want = (basis * np.log(lam[i])) @ basis.T
            assert np.allclose(logs[i], want, rtol=0.0, atol=1e-12)
        # both leave the stream at the same position
        assert rng.generator.random() == ref.generator.random()

    def test_logs_law(self):
        # at k=2 the principal axis of E diag(ln l) E^T is uniform mod pi;
        # at k=1 the matrix is l itself, uniform in [e^-r, e^r]
        r = 0.5
        logs = one_shot_logs(RngState(89), 2, r, 10**4)
        a, b, c = logs[:, 0, 0], logs[:, 0, 1], logs[:, 1, 1]
        angles = np.mod(0.5 * np.arctan2(2.0 * b, a - c), math.pi)
        assert stats.kstest(angles, stats.uniform(0.0, math.pi).cdf).pvalue > 0.01
        vals = np.exp(one_shot_logs(RngState(97), 1, r, 10**4)[:, 0, 0])
        lo, hi = math.exp(-r), math.exp(r)
        assert stats.kstest(vals, stats.uniform(lo, hi - lo).cdf).pvalue > 0.01

    def test_logs_pinned(self):
        # no golden CSV pins data values (utilities are ||z - c||^2), so this
        # pin is what shows any change of the synthetic data stream
        logs = one_shot_logs(RngState(0).substream(0), 3, 0.25, 2)
        assert np.allclose(logs, PINNED_LOGS, rtol=0.0, atol=1e-14)
        mean, _ = _mean_log(_synthetic_blocks(RngState(0).substream(0), 3, 0.25, 2))
        assert np.array_equal(mean, logs.mean(axis=0))

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf, 800.0, 1e308])
    def test_radius_validated(self, r):
        # e^r must be finite, or [e^-r, e^r] cannot be sampled
        with pytest.raises(DomainError, match="r must be"):
            sample_synthetic_spd(RngState(1), 3, r)
        with pytest.raises(DomainError, match="r must be"):
            _mean_log(_synthetic_blocks(RngState(1), 3, r, 5))

    def test_logs_parameter_validation(self):
        with pytest.raises(DomainError):
            _mean_log(_synthetic_blocks(RngState(1), 3, 0.25, 0))
        with pytest.raises(DimensionError):
            _mean_log(_synthetic_blocks(RngState(1), 0, 0.25, 5))
        assert _mean_log(_synthetic_blocks(RngState(1), 2, 709.78, 2))[0].shape == (2, 2)

    @pytest.mark.parametrize("bad", [2.7, 1.5, np.float64(3.0), "3"])
    def test_sizes_not_truncated(self, bad):
        # sizes and counts are rejected, never truncated: 2.7 data points is
        # not 2; a matrix size is a DimensionError, a count a DomainError
        with pytest.raises(DimensionError, match="integer"):
            _mean_log(_synthetic_blocks(RngState(1), bad, 0.25, 2))
        with pytest.raises(DomainError, match="integer"):
            _mean_log(_synthetic_blocks(RngState(1), 3, 0.25, bad))
        with pytest.raises(DimensionError, match="integer"):
            sample_synthetic_spd(RngState(1), bad, 0.25)


class TestStreamedSummary:
    """The synthetic draw is streamed in blocks of at most _FOLD_DOUBLES
    normals; the Fréchet-mean summary built from the blocks must equal that
    of one whole (n, k, k) draw bit for bit, at and around block
    boundaries."""

    @staticmethod
    def sizes(k):
        m = max(1, _FOLD_DOUBLES // (k * k))  # matrices per block
        return sorted({1, m - 1, m, m + 1, 3 * m + 1} - {0})

    @pytest.mark.parametrize("k", [2, 10, 30])
    def test_summary_equals_stack(self, k):
        for n in self.sizes(k):
            logs = one_shot_logs(RngState(61, (n,)), k, 0.25, n)
            rng = RngState(61, (n,))
            mean, count = _mean_log(_synthetic_blocks(rng, k, 0.25, n))
            assert np.array_equal(mean, logs.mean(axis=0)), n
            assert count == n
            # the yielded blocks can be kept: together they are the one-shot draw
            blocks = list(_synthetic_blocks(RngState(61, (n,)), k, 0.25, n))
            assert np.array_equal(np.concatenate(blocks), logs), n
            # the summary leaves the stream where the one-shot draw does
            ref = RngState(61, (n,))
            one_shot_logs(ref, k, 0.25, n)
            assert rng.generator.random() == ref.generator.random()

    def test_memory_does_not_grow_with_n(self):
        # the stack of k = 30, n = 5000 log-matrices alone is 36 MB; the
        # summary holds the n·k eigenvalues and a few block-sized arrays
        k, n = 30, 5000
        _mean_log(_synthetic_blocks(RngState(1), k, 0.25, 50))  # warm numpy up
        rng = RngState(2)
        peak = peak_bytes(lambda: _mean_log(_synthetic_blocks(rng, k, 0.25, n)))
        assert peak <= 8 * (n * k + 16 * _FOLD_DOUBLES)


# one_shot_logs(RngState(0).substream(0), 3, 0.25, 2), recorded
# when RngState moved from Philox to SFC64 (same seed, same stream layout)
PINNED_LOGS = np.array(
    [
        [
            [0.05406896346830775, 0.038731168318190366, 0.034784369357336566],
            [0.038731168318190366, 0.18818692599509318, 0.029395536387638768],
            [0.034784369357336566, 0.029395536387638768, 0.000848734739274931],
        ],
        [
            [-0.15595300161407, -0.007363573104556147, 0.08450344912108575],
            [-0.007363573104556147, -0.18421455538980563, -0.04615957363599687],
            [0.08450344912108575, -0.04615957363599687, -0.04894390780320678],
        ],
    ]
)
