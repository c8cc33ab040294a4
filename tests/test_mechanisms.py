import functools
import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from spdprivacy.errors import DimensionError, DomainError, NumericalError
from spdprivacy.geometry import (
    SpdMatrix,
    SymMatrix,
    expm,
    expm_stack,
    frechet_mean_le,
    identity,
    invvecd_stack,
    le_add,
    le_distance,
    logm_stack,
    vecd_stack,
)
from spdprivacy.mechanisms import (
    ACCEPTANCE_BAND,
    MECHANISMS,
    PrivacyBudget,
    Sensitivity,
    SensitivityKind,
    _analytic_condition,
    _laplace_chain,
    _laplace_chains,
    acceptance_warning,
    calibrate_analytic,
    calibrate_classical,
    gaussian_release_block,
    laplace_chains_stack,
    laplace_release,
    sensitivity_extrinsic,
    sensitivity_frechet_le,
    tangent_gaussian_stack,
)
from spdprivacy.sampling import RngState, sample_synthetic_spd


def le_sens(value):
    return Sensitivity(value=value, kind=SensitivityKind.LOG_EUCLIDEAN)


def mp_classical(delta_le, eps, delta):
    with mpmath.workdps(60):
        val = delta_le * mpmath.sqrt(2 * mpmath.log(mpmath.mpf("1.25") / mpmath.mpf(delta))) / eps
        return float(val)


def gaussian(name, rng, summary, sigma):
    """One release of ``summary`` by the Gaussian table row ``name``."""
    row = MECHANISMS[name]
    center = row.center(summary)
    noise = rng.generator.standard_normal(center.size)
    return row.export(gaussian_release_block(center, sigma, noise), summary.dim)


def laplace(rng, summary, sigma, **chain):
    """One Riemannian Laplace release of ``summary`` and its acceptance ratio."""
    row = MECHANISMS["riemannian_laplace"]
    z, ratio = laplace_release(rng, row.center(summary), sigma, **chain)
    return row.export(z, summary.dim), ratio


def spd_at_distance(rho, k=2):
    """An SPD matrix at exact log-Euclidean distance rho from the identity."""
    d = k * (k + 1) // 2
    direction = np.zeros(d)
    direction[0] = rho
    return expm(SymMatrix(invvecd_stack(direction, k)))


# Every count argument of the mechanisms, as a call that returns an array.
COUNT_ARGUMENTS = {
    "frechet_n": lambda c: np.array([sensitivity_frechet_le(c, 1.0).value]),
    "extrinsic_n": lambda c: np.array([sensitivity_extrinsic(c, 1.0).value]),
    "gaussian_size": lambda c: tangent_gaussian_stack(RngState(1), identity(2), 1.0, size=c),
    "chains_n_chains": lambda c: np.append(
        *laplace_chains_stack(RngState(1), identity(2), 1.0, burn_in=10, n_chains=c)
    ),
    "chains_burn_in": lambda c: np.append(
        *laplace_chains_stack(RngState(1), identity(2), 1.0, burn_in=c, n_chains=2)
    ),
    "release_burn_in": lambda c: np.append(
        *laplace_release(RngState(1), np.zeros(3), 1.0, burn_in=c)
    ),
}


class TestCountArguments:
    @pytest.mark.parametrize("call", COUNT_ARGUMENTS.values(), ids=COUNT_ARGUMENTS.keys())
    def test_rejected_not_truncated(self, call):
        # 2.7 data points, draws, chains or steps is not 2
        for bad in (2.7, 1.5, np.float64(3.0), "3"):
            with pytest.raises(DomainError, match="integer"):
                call(bad)

    @pytest.mark.parametrize("call", COUNT_ARGUMENTS.values(), ids=COUNT_ARGUMENTS.keys())
    def test_numpy_integers_accepted(self, call):
        # an integral NumPy count releases exactly what the Python int does
        assert np.array_equal(call(np.int64(2)), call(2))


class TestSensitivities:
    def test_frechet_formula(self):
        assert sensitivity_frechet_le(1, 1.0).value == 2.0
        k = 4
        sens = sensitivity_frechet_le(500, math.sqrt(k) * 0.25)
        assert sens.value == pytest.approx(math.sqrt(k) / 1000, rel=1e-15)
        assert sens.kind == SensitivityKind.LOG_EUCLIDEAN

    def test_frechet_brute_force_adjacent(self, nprng):
        # swapping one point never moves the mean by more than 2r/n
        from spdprivacy.geometry import frechet_mean_le

        k, n, r = 2, 3, 1.0
        d = 3

        def point():
            direction = nprng.standard_normal(d)
            direction /= np.linalg.norm(direction)
            radius = r * nprng.random()
            return expm(SymMatrix(invvecd_stack(radius * direction, k)))

        for _ in range(40):
            data = [point() for _ in range(n)]
            swapped = list(data)
            swapped[int(nprng.integers(n))] = point()
            moved = le_distance(frechet_mean_le(data), frechet_mean_le(swapped))
            assert moved <= 2.0 * r / n + 1e-10

    def test_extrinsic_formula(self):
        sens = sensitivity_extrinsic(500, 1.0)
        assert sens.value == pytest.approx(2.0 * math.e / 500, rel=1e-15)
        assert sens.kind == SensitivityKind.EXTRINSIC

    def test_extrinsic_edge_swap_counterexample(self):
        # nine points at log = diag(1, 1), the tenth swapped to diag(-1, -1):
        # the mean moves 0.697 in Frobenius norm, above the old 2(e^r - 1)/n
        k, n, r = 2, 10, math.sqrt(2.0)
        edge = expm(SymMatrix(np.eye(k)))
        data = [edge] * n
        swapped = data[:-1] + [expm(SymMatrix(-np.eye(k)))]
        moved = np.linalg.norm(
            frechet_mean_le(data).entries - frechet_mean_le(swapped).entries
        )
        assert moved == pytest.approx(0.697, abs=1e-3)
        assert moved > 2.0 * math.expm1(r) / n
        assert moved <= sensitivity_extrinsic(n, r).value

    def test_extrinsic_brute_force_adjacent(self, nprng):
        # mirrors the log-Euclidean brute force with Frobenius distance of
        # the means in SYM(k); the adversarial pairs sit on the ball's edge:
        # n - 1 points at one edge point, the last swapped to another
        k, n, r = 2, 10, math.sqrt(2.0)
        d = 3
        bound = sensitivity_extrinsic(n, r).value + 1e-10

        def edge_point():
            direction = nprng.standard_normal(d)
            direction /= np.linalg.norm(direction)
            return expm(SymMatrix(invvecd_stack(r * direction, k)))

        for _ in range(200):
            data = [edge_point()] * n
            swapped = data[:-1] + [edge_point()]
            moved = np.linalg.norm(
                frechet_mean_le(data).entries - frechet_mean_le(swapped).entries
            )
            assert moved <= bound

    def test_extrinsic_close_to_intrinsic_for_tiny_radius(self):
        r = 1e-9
        ratio = sensitivity_extrinsic(10, r).value / sensitivity_frechet_le(10, r).value
        assert abs(ratio - 1.0) <= 1e-6

    def test_extrinsic_dominates_on_grid(self):
        for r in np.arange(0.1, 5.0, 0.35):
            assert sensitivity_extrinsic(7, r).value > sensitivity_frechet_le(7, r).value

    def test_validation(self):
        with pytest.raises(DomainError):
            sensitivity_frechet_le(0, 1.0)
        with pytest.raises(DomainError):
            sensitivity_extrinsic(5, 0.0)
        with pytest.raises(DomainError, match="e\\^r is finite"):
            sensitivity_extrinsic(5, 710.0)


class TestClassicalCalibration:
    def test_collapsed_log_case(self):
        sigma = calibrate_classical(le_sens(1.0), PrivacyBudget(0.5, 1.25 / math.e))
        assert sigma == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)

    def test_high_precision_reference(self):
        cases = [(1.0, 0.5, 1e-5), (0.37, 0.9, 1e-7), (2.5, 0.11, 1e-3)]
        for delta_le, eps, delta in cases:
            got = calibrate_classical(le_sens(delta_le), PrivacyBudget(eps, delta))
            assert got == pytest.approx(mp_classical(delta_le, eps, delta), rel=1e-12)

    def test_epsilon_restriction(self):
        with pytest.raises(DomainError, match="analytic"):
            calibrate_classical(le_sens(1.0), PrivacyBudget(2.0, 1e-5))
        with pytest.raises(DomainError, match="analytic"):
            calibrate_classical(le_sens(1.0), PrivacyBudget(1.0, 1e-5))

    def test_scaling_structure(self):
        base = calibrate_classical(le_sens(1.0), PrivacyBudget(0.4, 1e-6))
        for scale in (0.1, 3.0, 17.0):
            assert calibrate_classical(
                le_sens(scale), PrivacyBudget(0.4, 1e-6)
            ) == pytest.approx(scale * base, rel=1e-12)
        for eps in (0.1, 0.25, 0.8):
            assert calibrate_classical(
                le_sens(1.0), PrivacyBudget(eps, 1e-6)
            ) == pytest.approx(0.4 * base / eps, rel=1e-12)

    def test_monotone_in_delta(self):
        sigmas = [
            calibrate_classical(le_sens(1.0), PrivacyBudget(0.4, delta))
            for delta in (1e-9, 1e-7, 1e-5, 1e-3, 0.5)
        ]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))


class TestAnalyticCalibration:
    def test_below_classical(self):
        budget = PrivacyBudget(0.5, 1e-5)
        ana = calibrate_analytic(le_sens(1.0), budget)
        cla = calibrate_classical(le_sens(1.0), budget)
        assert ana < cla
        assert cla == pytest.approx(9.689610525210778, rel=1e-12)

    def test_minimality(self):
        for eps, delta in ((0.5, 1e-5), (0.1, 1e-6), (2.0, 1e-9), (5.0, 1e-4)):
            sigma = calibrate_analytic(le_sens(1.0), PrivacyBudget(eps, delta))
            assert _analytic_condition(sigma, 1.0, eps) <= delta
            assert _analytic_condition(sigma * (1 - 1e-9), 1.0, eps) > delta

    def test_monotone_in_delta(self):
        budgetless = [1e-9, 1e-7, 1e-5, 1e-3, 1e-1, 0.5, 0.9]
        sigmas = [
            calibrate_analytic(le_sens(1.0), PrivacyBudget(0.3, delta))
            for delta in budgetless
        ]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_monotone_in_epsilon(self):
        sigmas = [
            calibrate_analytic(le_sens(1.0), PrivacyBudget(eps, 1e-6))
            for eps in (0.05, 0.1, 0.5, 1.0, 3.0)
        ]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_never_above_classical_on_grid(self):
        for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
            for delta in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
                budget = PrivacyBudget(eps, delta)
                assert calibrate_analytic(le_sens(1.0), budget) <= calibrate_classical(
                    le_sens(1.0), budget
                )

    def test_sensitivity_scaling(self):
        budget = PrivacyBudget(0.2, 1e-6)
        base = calibrate_analytic(le_sens(1.0), budget)
        assert calibrate_analytic(le_sens(4.0), budget) == pytest.approx(
            4.0 * base, rel=1e-9
        )


class TestMechanismTable:
    def test_names_in_order(self):
        assert list(MECHANISMS) == [
            "tangent_classical", "tangent_analytic", "extrinsic_analytic", "riemannian_laplace"
        ]

    def test_noise_scales_from_public_functions(self):
        n, r, eps, delta = 300, 0.7, 0.5, 1e-5
        budget = PrivacyBudget(eps, delta)
        le, ext = sensitivity_frechet_le(n, r), sensitivity_extrinsic(n, r)
        want = {
            "tangent_classical": calibrate_classical(le, budget),
            "tangent_analytic": calibrate_analytic(le, budget),
            "extrinsic_analytic": calibrate_analytic(ext, budget),
            "riemannian_laplace": le.value / eps,
        }
        assert {name: m.noise_scale(n, r, eps, delta) for name, m in MECHANISMS.items()} == want

    def test_classical_requires_small_epsilon(self):
        with pytest.raises(DomainError, match="epsilon < 1"):
            MECHANISMS["tangent_classical"].noise_scale(100, 1.0, 1.5, 1e-6)

    def test_export_type_follows_chart(self):
        z = np.array([0.1, -0.2, 0.05])
        for name, mechanism in MECHANISMS.items():
            out = mechanism.export(z, 2)
            if mechanism.log_chart:
                assert isinstance(out, SpdMatrix), name
                assert np.array_equal(out.entries, expm_stack(invvecd_stack(z, 2)))
            else:
                assert type(out) is SymMatrix, name
                assert np.array_equal(out.entries, invvecd_stack(z, 2))
        assert [m.chain for m in MECHANISMS.values()] == [False, False, False, True]
        assert [m.log_chart for m in MECHANISMS.values()] == [True, True, False, True]

    @pytest.mark.parametrize("name", ["tangent_analytic", "riemannian_laplace"])
    def test_export_beyond_float64_is_numerical_error(self, name):
        # log-eigenvalues -40 and 40 are finite, and so is their exponential,
        # but e^-40 is below float64 resolution next to e^40
        z = np.array([-40.0, 40.0, 0.0])
        with pytest.raises(NumericalError, match="not representable in float64"):
            MECHANISMS[name].export(z, 2)


class TestTangentGaussian:
    def test_vanishing_noise(self):
        summary = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
        out = gaussian("tangent_analytic", RngState(1), summary, 1e-300)
        assert np.max(np.abs(out.entries - summary.entries)) <= 1e-8

    def test_output_is_spd_type(self):
        rng = RngState(2)
        summary = SpdMatrix([[1.5, -0.4], [-0.4, 2.5]])
        for _ in range(50):
            assert isinstance(gaussian("tangent_analytic", rng, summary, 5.0), SpdMatrix)

    def test_utility_chi_square(self):
        rng = RngState(3)
        summary = identity(2)
        n = 5 * 10**4
        draws = tangent_gaussian_stack(rng, summary, 1.0, n)
        util = np.sum(logm_stack(draws) ** 2, axis=(1, 2))
        assert stats.kstest(util, stats.chi2(3).cdf).pvalue > 0.01

    def test_stack_matches_single_draw_law(self):
        summary = SpdMatrix([[2.0, 0.3], [0.3, 0.8]])
        singles = np.array(
            [
                le_distance(
                    summary, gaussian("tangent_analytic", RngState(5).substream(i), summary, 0.6)
                )
                ** 2
                for i in range(2000)
            ]
        )
        bulk = tangent_gaussian_stack(RngState(6), summary, 0.6, 2000)
        log_s = logm_stack(summary.entries)
        bulk_stat = np.sum((logm_stack(bulk) - log_s) ** 2, axis=(1, 2))
        assert stats.ks_2samp(singles, bulk_stat).pvalue > 0.01

    def test_equivalent_reformulation(self):
        # mechanism draws match summary (+) LN(I, sigma^2 I) in law
        summary = SpdMatrix([[2.0, 0.5], [0.5, 1.2]])
        sigma = 0.9
        n = 10**4
        direct = tangent_gaussian_stack(RngState(7), summary, sigma, n)
        noise = tangent_gaussian_stack(RngState(8), identity(2), sigma, n)
        shifted = np.linalg.eigh(logm_stack(noise) + logm_stack(summary.entries))
        log_s = logm_stack(summary.entries)
        stat_direct = np.sum((logm_stack(direct) - log_s) ** 2, axis=(1, 2))
        shifted_logs = logm_stack(
            np.einsum("nij,nj,nkj->nik", shifted[1], np.exp(shifted[0]), shifted[1])
        )
        stat_shift = np.sum((shifted_logs - log_s) ** 2, axis=(1, 2))
        assert stats.ks_2samp(stat_direct, stat_shift).pvalue > 0.01


class TestExtrinsicGaussian:
    def test_vanishing_noise_exact(self):
        summary = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
        out = gaussian("extrinsic_analytic", RngState(1), summary, 1e-300)
        assert np.array_equal(out.entries, summary.entries)

    def test_frobenius_chi_square(self):
        rng = RngState(11)
        summary = SpdMatrix([[2.0, 0.2], [0.2, 1.0]])
        sigma = 0.4
        n = 2 * 10**4
        sq = np.empty(n)
        for i in range(n):
            out = gaussian("extrinsic_analytic", rng, summary, sigma)
            sq[i] = np.sum((out.entries - summary.entries) ** 2) / sigma**2
        assert stats.kstest(sq, stats.chi2(3).cdf).pvalue > 0.01

    def test_large_noise_leaves_cone(self):
        summary = identity(2)
        sigma = 10.0 * np.linalg.norm(summary.entries)
        rng = RngState(12)
        found_negative = False
        for _ in range(50):
            out = gaussian("extrinsic_analytic", rng, summary, sigma)
            if np.linalg.eigvalsh(out.entries)[0] < 0:
                found_negative = True
                break
        assert found_negative

    def test_output_type_is_sym_not_spd(self):
        out = gaussian("extrinsic_analytic", RngState(1), identity(2), 1.0)
        assert isinstance(out, SymMatrix)
        assert not isinstance(out, SpdMatrix)


class TestRiemannianLaplace:
    def test_concentrates_at_mode_for_tiny_sigma(self):
        summary = SpdMatrix([[2.0, 0.5], [0.5, 1.5]])
        sample, _ = laplace(RngState(13), summary, 1e-6, burn_in=5000)
        assert le_distance(summary, sample) <= 1e-3
        assert isinstance(sample, SpdMatrix)

    def test_acceptance_in_band_small_k(self):
        for k, seed in ((2, 14), (5, 15)):
            summary = identity(k)
            _, ratio = laplace(RngState(seed), summary, 0.5, burn_in=4000)
            assert ACCEPTANCE_BAND[0] <= ratio <= ACCEPTANCE_BAND[1]
            assert acceptance_warning(ratio) is None

    def test_warning_outside_band(self):
        # an enormous proposal is almost never accepted
        _, ratio = laplace(RngState(16), identity(2), 0.05, burn_in=500, proposal_sigma=500.0)
        assert ratio < ACCEPTANCE_BAND[0]
        warning = acceptance_warning(ratio)
        assert warning is not None and "acceptance ratio" in warning

    def test_radial_mean_matches_quadrature(self):
        # E[rho] for the flat-chart Laplace target via numerical quadrature
        sigma = 1.0
        k, d = 2, 3
        summary = identity(k)
        chains, ratio = laplace_chains_stack(
            RngState(17), summary, sigma, burn_in=4000, n_chains=4000
        )
        rho = np.linalg.norm(logm_stack(chains), axis=(1, 2))
        ts = np.linspace(0.0, 40.0 * sigma, 200001)
        weights = ts ** (d - 1) * np.exp(-ts / sigma)
        expected = np.trapezoid(ts * weights, ts) / np.trapezoid(weights, ts)
        assert ratio == pytest.approx(0.6, abs=0.15)
        assert abs(rho.mean() - expected) / expected <= 0.05

    def test_parameters_validated(self):
        with pytest.raises(DomainError):
            laplace(RngState(1), identity(2), 0.0)
        with pytest.raises(DomainError):
            laplace(RngState(1), identity(2), 1.0, burn_in=0)
        with pytest.raises(DomainError):
            laplace_chains_stack(RngState(1), identity(2), 1.0, burn_in=10, n_chains=0)


def reference_chains(rng, center, sigma, burn_in, n_chains=1):
    """Plain radial Metropolis over the documented stream: one direction
    draw (n_chains, d), then per block of b = min(burn_in, 2^16 // (3 *
    n_chains)) steps the radial components, the orthogonal squared norms
    (none when d = 1) and the uniforms, each (b, n_chains).  Each chain
    steps on its own column; the candidate is the norm of the 2-vector
    (r + alpha, sqrt(q)) and the target ratio is evaluated directly."""
    gen = rng.generator
    d = center.size
    directions = gen.standard_normal((n_chains, d))
    radii = [d * sigma] * n_chains
    block = max(1, min(burn_in, 2**16 // (3 * n_chains)))
    accepted = 0
    for done in range(0, burn_in, block):
        size = (min(block, burn_in - done), n_chains)
        alpha = sigma * gen.standard_normal(size)
        q = 2 * sigma**2 * gen.standard_gamma((d - 1) / 2, size) if d > 1 else np.zeros(size)
        log_u = np.log(gen.random(size))
        for i in range(n_chains):
            for a, q_, lu in zip(alpha[:, i], q[:, i], log_u[:, i]):
                cand = np.linalg.norm([radii[i] + a, math.sqrt(q_)])
                if lu < -(cand - radii[i]) / sigma:
                    radii[i] = cand
                    accepted += 1
    units = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    return center + np.array(radii)[:, None] * units, accepted


def cartesian_chains(gen, center, sigma, burn_in, n_chains):
    """The law oracle of the radial kernels: the same Metropolis chains run
    on their full state in R^d.  Each starts at radius d*sigma in a uniform
    direction and proposes z + s with s ~ N(0, sigma^2 I_d); returns the
    final states (n_chains, d) and each chain's accepted step count."""
    d = center.size
    w = gen.standard_normal((n_chains, d))
    w *= d * sigma / np.linalg.norm(w, axis=1, keepdims=True)
    dist = np.linalg.norm(w, axis=1)
    accepted = np.zeros(n_chains, dtype=int)
    for _ in range(burn_in):
        cand = w + sigma * gen.standard_normal((n_chains, d))
        cand_dist = np.linalg.norm(cand, axis=1)
        take = np.log(gen.random(n_chains)) < (dist - cand_dist) / sigma
        w[take], dist[take] = cand[take], cand_dist[take]
        accepted += take
    return center + w, accepted


def assert_close_in_norm(z, want, rtol=1e-12):
    # norm-wise: the reference and the kernel round their radii differently
    assert np.linalg.norm(z - want) <= rtol * np.linalg.norm(want)


class TestLaplaceKernel:
    """The radial chain kernels against a plain radial reference on the
    same stream, and against the full-state chain in law."""

    @staticmethod
    def center(k, seed):
        return vecd_stack(logm_stack(sample_synthetic_spd(RngState(seed), k, 0.25).entries))

    @pytest.mark.parametrize("k, sigma, burn_in", [(1, 0.5, 3000), (2, 0.5, 3000), (10, 0.02, 2500)])
    def test_matches_reference_loop(self, k, sigma, burn_in):
        center = self.center(k, 70)
        z, ratio = laplace_release(RngState(71), center, sigma, burn_in=burn_in)
        want, accepted = reference_chains(RngState(71), center, sigma, burn_in)
        assert ratio == accepted / burn_in
        assert_close_in_norm(z, want[0])

    @pytest.mark.parametrize("offset", [None, -1, 1])
    def test_burn_in_around_block_size(self, offset):
        burn_in = 1 if offset is None else 2**16 // 3 + offset
        center = self.center(10, 72)
        z, ratio = laplace_release(RngState(73), center, 0.02, burn_in=burn_in)
        want, accepted = reference_chains(RngState(73), center, 0.02, burn_in)
        assert ratio == accepted / burn_in
        assert_close_in_norm(z, want[0])

    def test_chain_stack_matches_reference_loop(self):
        # three chains over two full blocks and a short one
        center = self.center(5, 78)
        burn_in = 2 * (2**16 // 9) + 5
        states, ratio = _laplace_chains(RngState(79), center, 0.1, burn_in, None, 3)
        want, accepted = reference_chains(RngState(79), center, 0.1, burn_in, n_chains=3)
        assert ratio == accepted / (3 * burn_in)
        for z, w in zip(states, want):
            assert_close_in_norm(z, w)

    @pytest.mark.parametrize("k", [2, 5])
    def test_single_chain_equals_chain_stack(self, k):
        summary = sample_synthetic_spd(RngState(74), k, 0.25)
        center = vecd_stack(logm_stack(summary.entries))
        z, ratio = laplace_release(RngState(75), center, 0.3, burn_in=2000)
        states, stack_ratio = _laplace_chains(RngState(75), center, 0.3, 2000, None, 1)
        assert np.array_equal(states[0], z)
        assert stack_ratio == ratio
        stack, _ = laplace_chains_stack(RngState(75), summary, 0.3, burn_in=2000, n_chains=1)
        assert np.array_equal(stack, expm_stack(invvecd_stack(z[None], k)))

    def test_tracked_distance_exact_in_high_dimension(self):
        center = self.center(30, 76)
        sigma = 2.0 * math.sqrt(30) * 0.25 / 500 / 0.1
        z, dist, accepted = _laplace_chain(RngState(77), center, sigma, 1000, None)
        assert 0 < accepted < 1000
        assert dist == pytest.approx(np.linalg.norm(z - center), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [2, 5])
    def test_law_of_cartesian_chain(self, k):
        # same start and burn-in: the final radius, the acceptance ratio and
        # the direction have the full-state chain's law, not only at
        # stationarity
        d, n, sigma, burn_in = k * (k + 1) // 2, 3000, 0.3, 25
        center = self.center(k, 80)
        states, ratio = _laplace_chains(RngState(81), center, sigma, burn_in, None, n)
        want, accepted = cartesian_chains(RngState(82).generator, center, sigma, burn_in, n)
        radii = np.linalg.norm(states - center, axis=1)
        assert stats.ks_2samp(radii, np.linalg.norm(want - center, axis=1)).pvalue > 0.01
        per_chain = accepted / burn_in
        se = per_chain.std(ddof=1) / math.sqrt(n)
        assert abs(ratio - per_chain.mean()) <= 4 * math.sqrt(2) * se
        # <u, e> for a unit e is 2 Beta((d-1)/2, (d-1)/2) - 1 for u uniform
        e = np.ones(d) / math.sqrt(d)
        law = stats.beta((d - 1) / 2, (d - 1) / 2, loc=-1.0, scale=2.0)
        assert stats.kstest((states - center) @ e / radii, law.cdf).pvalue > 0.01


def k_norm_sample(gen, center, sigma, size):
    """Exact draws of the l2 K-norm mechanism, density proportional to
    exp(-||z - center||/sigma) on R^d (Hardt & Talwar, STOC 2010): the
    radius is Gamma(d, sigma) and the direction uniform on the sphere."""
    radius = gen.gamma(center.size, sigma, size)
    direction = gen.standard_normal((size, center.size))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return center + radius[:, None] * direction


@functools.cache
def chain_radii(k, sigma=0.05, n_chains=3000, burn_in=5000):
    """Final distances to the center of ``n_chains`` Laplace chains around
    a synthetic k x k summary, through :func:`laplace_chains_stack`."""
    summary = sample_synthetic_spd(RngState(90 + k), k, 0.25)
    chains, _ = laplace_chains_stack(RngState(95 + k), summary, sigma, burn_in, n_chains)
    offsets = vecd_stack(logm_stack(chains)) - vecd_stack(logm_stack(summary.entries))
    return np.linalg.norm(offsets, axis=1), sigma


class TestKNormOracle:
    """The chain's target is the l2 K-norm mechanism in the flat chart;
    its exact sampler checks the chain's output law."""

    @pytest.mark.parametrize("d", [1, 3, 55])
    def test_sampler_radius_is_gamma(self, d):
        center = np.linspace(-1.0, 1.0, d)
        z = k_norm_sample(np.random.default_rng(d), center, 0.7, 20000)
        radii = np.linalg.norm(z - center, axis=1)
        assert stats.kstest(radii, stats.gamma(d, scale=0.7).cdf).pvalue > 0.01

    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_chain_radii_match_sampler(self, k):
        radii, sigma = chain_radii(k)
        d = k * (k + 1) // 2
        exact = k_norm_sample(np.random.default_rng(100 + k), np.zeros(d), sigma, 20000)
        assert stats.ks_2samp(radii, np.linalg.norm(exact, axis=1)).pvalue > 0.01

    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_chain_mean_utility(self, k):
        # E||z - c||^2 = sigma^2 d(d+1) for a Gamma(d, sigma) radius
        radii, sigma = chain_radii(k)
        d = k * (k + 1) // 2
        mean = sigma**2 * d * (d + 1)
        var = sigma**4 * d * (d + 1) * ((d + 2) * (d + 3) - d * (d + 1))
        assert abs(np.mean(radii**2) - mean) <= 4 * math.sqrt(var / radii.size)


class TestLogChartCores:
    @pytest.mark.parametrize("k", [2, 10, 30])
    def test_tangent_utility_is_log_euclidean_deviation(self, k):
        summary = sample_synthetic_spd(RngState(60), k, 0.25)
        center = vecd_stack(logm_stack(summary.entries))
        noise = RngState(61).substream(k).generator.standard_normal(center.size)
        z = gaussian_release_block(center, 0.3, noise)
        out = MECHANISMS["tangent_analytic"].export(z, k)
        utility = float((z - center) @ (z - center))
        assert utility == pytest.approx(le_distance(summary, out) ** 2, rel=1e-9)

    def test_center_export_round_trip(self):
        summary = SpdMatrix([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.7]])
        z = np.array([0.1, -0.2, 0.05, 0.3, 0.0, -0.4])
        for name, row in MECHANISMS.items():
            center = row.center(summary)
            chart = logm_stack(summary.entries) if row.log_chart else summary.entries
            assert np.array_equal(center, vecd_stack(chart)), name
            assert np.allclose(row.export(center, 3).entries, summary.entries, rtol=0, atol=1e-12)
            assert np.allclose(row.center(row.export(z, 3)), z, rtol=0, atol=1e-12)

    def test_cores_validate(self):
        with pytest.raises(DimensionError):
            laplace_release(RngState(1), np.zeros(4), 1.0, burn_in=10)
        with pytest.raises(DomainError):
            laplace_release(RngState(1), np.zeros(3), 1.0, burn_in=0)


class TestPrivacyLoss:
    def test_mean_matches_normal_law(self):
        f_d = identity(2)
        f_dp = SpdMatrix(np.diag([math.exp(0.1), 1.0]))
        sigma = 1.0
        rho = le_distance(f_d, f_dp)
        n = 10**4
        draws = tangent_gaussian_stack(RngState(19), f_d, sigma, n)
        logs = logm_stack(draws)
        v = vecd_stack(logs - logm_stack(f_d.entries))
        v_p = vecd_stack(logs - logm_stack(f_dp.entries))
        losses = (np.sum(v_p**2, axis=1) - np.sum(v**2, axis=1)) / (2 * sigma**2)
        se = (rho / sigma) / math.sqrt(n)
        assert abs(losses.mean() - rho**2 / (2 * sigma**2)) <= 3 * se

    def test_normal_law_grid(self):
        # privacy loss is N(rho^2/2s^2, rho^2/s^2) for each rho, k
        sigma = 1.0
        for k, rho, seed in ((2, 0.1, 20), (2, 1.0, 21), (5, 0.1, 22), (5, 1.0, 23)):
            f_d = identity(k)
            f_dp = spd_at_distance(rho, k)
            assert le_distance(f_d, f_dp) == pytest.approx(rho, rel=1e-12)
            draws = tangent_gaussian_stack(RngState(seed), f_d, sigma, 2 * 10**4)
            logs = logm_stack(draws)
            v = vecd_stack(logs - logm_stack(f_d.entries))
            v_p = vecd_stack(logs - logm_stack(f_dp.entries))
            losses = (np.sum(v_p**2, axis=1) - np.sum(v**2, axis=1)) / (2 * sigma**2)
            law = stats.norm(rho**2 / (2 * sigma**2), rho / sigma)
            assert stats.kstest(losses, law.cdf).pvalue > 0.01

