import functools
import math
from fractions import Fraction

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
    _classical_factor,
    _laplace_chains,
    acceptance_warning,
    calibrate_analytic,
    calibrate_classical,
    laplace_chains_stack,
    sensitivity_extrinsic,
    sensitivity_frechet_le,
    tangent_gaussian_stack,
)
from spdprivacy.sampling import RngState, sample_synthetic_spd

from conftest import peak_bytes


def le_sens(value):
    return Sensitivity(value=value, kind=SensitivityKind.LOG_EUCLIDEAN)


def mp_classical(delta_le, eps, delta):
    with mpmath.workdps(60):
        val = delta_le * mpmath.sqrt(2 * mpmath.log(mpmath.mpf("1.25") / mpmath.mpf(delta))) / eps
        return float(val)


LAPLACE = MECHANISMS["riemannian_laplace"]


def least_at_or_above(x, exact):
    """Whether the float ``x`` is the least float at or above the Fraction
    ``exact``."""
    return Fraction(math.nextafter(x, -math.inf)) < exact <= Fraction(x)


def gaussian(name, rng, summary, sigma):
    """One release of ``summary`` by the Gaussian table row ``name``."""
    row = MECHANISMS[name]
    (z,), _ = row.release(rng, row.center(logm_stack(summary.entries)), sigma)
    return row.export(z, summary.dim)


def laplace(rng, summary, sigma, burn_in=50000):
    """One Riemannian Laplace release of ``summary`` and its acceptance ratio."""
    center = LAPLACE.center(logm_stack(summary.entries))
    (z,), (ratio,) = LAPLACE.release(rng, center, sigma, burn_in=burn_in)
    return LAPLACE.export(z, summary.dim), ratio


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
        *LAPLACE.release(RngState(1), np.zeros(3), 1.0, burn_in=c)
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

    def test_frechet_sweep_is_exact_and_minimal(self):
        # Delta is the least float at or above the exact 2r/n, subnormal r included
        rng = np.random.default_rng(12)
        radii = 10.0 ** rng.uniform(-320, 300, 10000)
        counts = np.floor(10.0 ** rng.uniform(0, 12, 10000)).astype(np.int64)
        for n, r in zip(counts.tolist(), radii.tolist()):
            value = sensitivity_frechet_le(n, r).value
            assert least_at_or_above(value, 2 * Fraction(r) / n), (n, r)

    @pytest.mark.parametrize(
        "n, r", [(3, 2.5e-323), (10, 1e308), (2**1024, 0.25), (2**1100, 1e-300)],
        ids=["subnormal", "2r-past-max", "n-past-max", "below-subnormal"],
    )
    def test_frechet_edges_exact(self, n, r):
        # 2r/n rounded to nearest lands 10% low on the subnormal grid, 2r
        # overflows although 2r/n does not, and n past float64's largest
        # value has no float; the last quotient is below the least subnormal
        value = sensitivity_frechet_le(n, r).value
        assert least_at_or_above(value, 2 * Fraction(r) / n)

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
        for r in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="r must be positive and finite"):
                sensitivity_frechet_le(5, r)
        with pytest.raises(DomainError, match="sensitivity must be finite"):
            sensitivity_frechet_le(1, 1e308)
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

    def test_ratio_past_float64_max_rejected(self):
        # 1.25 / 1e-310 has no float, so neither has the bound on its log
        with pytest.raises(DomainError, match="1.25/delta below float64's largest value"):
            calibrate_classical(le_sens(1.0), PrivacyBudget(0.5, 1e-310))

    def test_infinite_scale_rejected(self):
        # Delta * sqrt(2 ln(1.25/delta)) / 5e-324 overflows float64
        with pytest.raises(DomainError, match="noise scale overflows float64"):
            calibrate_classical(le_sens(1.0), PrivacyBudget(5e-324, 1e-6))


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

    def test_epsilon_up_to_exp_limit(self):
        # the condition takes e^epsilon, finite up to epsilon = ln(max float) ~ 709.78
        sigma = calibrate_analytic(le_sens(1.0), PrivacyBudget(709.0, 1e-6))
        assert sigma == pytest.approx(0.0300965874922, rel=1e-11)
        with pytest.raises(DomainError, match="epsilon <= 709.783"):
            calibrate_analytic(le_sens(1.0), PrivacyBudget(710.0, 1e-6))

    def test_infinite_scale_rejected(self):
        # sigma is about 8 Delta, past float64's largest value
        with pytest.raises(DomainError, match="noise scale overflows float64"):
            calibrate_analytic(le_sens(1e308), PrivacyBudget(0.5, 1e-6))

    def test_bracket_past_float64_max(self):
        # 1e6 * Delta overflows above Delta ~ 1.8e302; sigma / Delta does not move
        budget = PrivacyBudget(1.0, 1e-6)
        for value in (1e300, 1e302, 1e303, 1e305):
            sigma = calibrate_analytic(le_sens(value), budget)
            assert sigma / value == pytest.approx(4.22467888933, rel=1e-11)
            # the bisection at an exact power-of-two scaling, scaled back
            assert sigma == math.ldexp(calibrate_analytic(le_sens(value * 2.0**-900), budget), 900)

    @pytest.mark.parametrize("value", [1e-311, 1e-320, 5e-324])
    def test_bracket_below_float64_normal(self, value):
        # 1e-6 * Delta leaves the normal range below Delta ~ 2.2e-302 and is 0
        # below about 5e-318; sigma is the in-range sigma at Delta 2^1000
        # scaled back, rounded up to the nearest float at or above it
        budget = PrivacyBudget(0.5, 1e-6)
        scaled = calibrate_analytic(le_sens(math.ldexp(value, 1000)), budget)
        sigma = calibrate_analytic(le_sens(value), budget)
        assert math.ldexp(sigma, 1000) >= scaled > math.ldexp(math.nextafter(sigma, 0.0), 1000)


# Sensitivities whose noise scales land below float64's normal range, on its
# grid of 2^-1074 ~ 4.9e-324.
SUBNORMAL_SENSITIVITIES = (1.5e-323, 2e-323, 3e-322, 1e-320)


class TestSubnormalScales:
    """A scale is the least float at or above its exact value, on the
    subnormal grid below float64's normal range as well as within it."""

    @pytest.mark.parametrize("value", SUBNORMAL_SENSITIVITIES)
    def test_classical_at_or_above_exact(self, value):
        sigma = calibrate_classical(le_sens(value), PrivacyBudget(0.5, 1e-6))
        with mpmath.workdps(50):
            exact = mpmath.mpf(value) * mpmath.sqrt(2 * mpmath.log(1.25 / mpmath.mpf(1e-6))) / 0.5
            assert math.nextafter(sigma, 0.0) < exact <= sigma

    @pytest.mark.parametrize("value, eps", [(value, 2.5) for value in SUBNORMAL_SENSITIVITIES] + [
        # 0.75 / 0.3 rounds down by 0.37 ulp to 2.5, and so 1.5e-323 / 0.3
        # rounded to the grid lands one grid point below the exact quotient
        (1.5e-323, 0.3),
    ])
    def test_pure_at_or_above_exact(self, value, eps):
        sigma = LAPLACE.calibrate(le_sens(value), PrivacyBudget(eps, 0.5))
        assert least_at_or_above(sigma, Fraction(value) / Fraction(eps))

    def test_pure_sweep_is_exact_and_minimal(self):
        # subnormal Laplace scales over random budgets: each is the smallest
        # grid point at or above the exact D / epsilon.  The second half has
        # epsilon above 2e307 and D in [0.5, 4)
        rng = np.random.default_rng(9)
        eps = 10.0 ** np.concatenate([rng.uniform(-3, 1.5, 3000), rng.uniform(307.4, 308.25, 3000)])
        values = np.concatenate([
            eps[:3000] * 10.0 ** rng.uniform(-323.6, -308, 3000), rng.uniform(0.5, 4, 3000)
        ])
        subnormal = 0
        for value, e in zip(values.tolist(), eps.tolist()):
            if value == 0.0:
                continue
            sigma = LAPLACE.calibrate(le_sens(value), PrivacyBudget(e, 0.5))
            if sigma >= np.finfo(float).tiny:
                continue
            subnormal += 1
            assert least_at_or_above(sigma, Fraction(value) / Fraction(e)), (value, e)
        assert subnormal > 3500

    def test_normal_range_sweep_is_exact_and_minimal(self):
        # normal-range scales over random budgets: the Laplace scale is the
        # least float at or above the exact D / epsilon, and the classical
        # one at or above the exact D factor / epsilon, with factor the float
        # bound on sqrt(2 ln(1.25/delta)) the calibration computes
        rng = np.random.default_rng(10)
        values = 10.0 ** rng.uniform(-300, 300, 3000)
        eps = 10.0 ** rng.uniform(-3, 1.5, 3000)
        deltas = 10.0 ** rng.uniform(-30, -1, 3000)
        classical = 0
        for value, e, delta in zip(values.tolist(), eps.tolist(), deltas.tolist()):
            budget = PrivacyBudget(e, delta)
            exact = Fraction(value) / Fraction(e)
            assert least_at_or_above(LAPLACE.calibrate(le_sens(value), budget), exact), (value, e)
            if e < 1:
                classical += 1
                factor = Fraction(_classical_factor(delta))
                sigma = calibrate_classical(le_sens(value), budget)
                assert least_at_or_above(sigma, exact * factor), (value, e, delta)
        assert classical > 1500


class TestExactUpperBounds:
    """The classical noise scale and the extrinsic sensitivity lie at or
    above their exact values, computed with mpmath at 50 digits, and within
    a few ulps of them."""

    def test_extrinsic_sweep(self):
        rng = np.random.default_rng(3)
        counts = np.floor(10.0 ** rng.uniform(0, 6, 2000)).astype(np.int64)
        radii = 10.0 ** rng.uniform(-3, 2.8, 2000)
        with mpmath.workdps(50):
            for n, r in zip(counts.tolist(), radii.tolist()):
                value = sensitivity_extrinsic(n, r).value
                exact = 2 * mpmath.mpf(r) * mpmath.exp(mpmath.mpf(r)) / n
                assert exact <= value <= exact * (1 + 2.0**-50), (n, r)

    def test_classical_sweep(self):
        rng = np.random.default_rng(3)
        values = 10.0 ** rng.uniform(-300, 300, 3000)
        eps = 10.0 ** rng.uniform(-3, 0, 3000)
        deltas = 10.0 ** rng.uniform(-30, -1, 3000)
        with mpmath.workdps(50):
            for value, e, delta in zip(values.tolist(), eps.tolist(), deltas.tolist()):
                sigma = calibrate_classical(le_sens(value), PrivacyBudget(e, delta))
                factor = mpmath.sqrt(2 * mpmath.log(mpmath.mpf(5) / (4 * mpmath.mpf(delta))))
                exact = mpmath.mpf(value) * factor / mpmath.mpf(e)
                assert exact <= sigma <= exact * (1 + 2.0**-50), (value, e, delta)


class TestMechanismTable:
    def test_names_in_order(self):
        assert list(MECHANISMS) == [
            "tangent_classical", "tangent_analytic", "extrinsic_analytic", "riemannian_laplace"
        ]

    def test_noise_scales_from_public_functions(self):
        n, r, delta = 300, 0.7, 1e-5
        le, ext = sensitivity_frechet_le(n, r), sensitivity_extrinsic(n, r)
        for eps in (0.5, 0.3):
            budget = PrivacyBudget(eps, delta)
            want = {
                "tangent_classical": calibrate_classical(le, budget),
                "tangent_analytic": calibrate_analytic(le, budget),
                "extrinsic_analytic": calibrate_analytic(ext, budget),
            }
            got = {name: m.noise_scale(n, r, eps, delta) for name, m in MECHANISMS.items()}
            # the pure-DP scale is the least float at or above Delta / epsilon
            laplace = got.pop("riemannian_laplace")
            assert least_at_or_above(laplace, Fraction(le.value) / Fraction(eps))
            assert got == want

    def test_laplace_infinite_scale_rejected(self):
        # the pure-DP scale Delta / epsilon overflows float64
        with pytest.raises(DomainError, match="noise scale overflows float64"):
            MECHANISMS["riemannian_laplace"].noise_scale(1, 0.25, 1e-310, 1e-6)

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
        # the center is the summary's entries as expm of its log gives them
        assert np.array_equal(out.entries, expm_stack(logm_stack(summary.entries)))
        assert np.allclose(out.entries, summary.entries, rtol=1e-14, atol=0.0)

    def test_frobenius_chi_square(self):
        rng = RngState(11)
        summary = SpdMatrix([[2.0, 0.2], [0.2, 1.0]])
        sigma = 0.4
        n = 2 * 10**4
        sq = np.empty(n)
        row = MECHANISMS["extrinsic_analytic"]
        center = row.center(logm_stack(summary.entries))  # draws nothing
        for i in range(n):
            (z,), _ = row.release(rng, center, sigma)
            sq[i] = np.sum((row.export(z, summary.dim).entries - summary.entries) ** 2) / sigma**2
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
        # a one-step chain accepts all of its steps or none
        _, ratio = laplace(RngState(16), identity(2), 0.05, burn_in=1)
        assert ratio in (0.0, 1.0)
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
        z, (ratio,) = LAPLACE.release(RngState(71), center, sigma, burn_in=burn_in)
        want, accepted = reference_chains(RngState(71).substream(0), center, sigma, burn_in)
        assert ratio == accepted / burn_in
        assert_close_in_norm(z, want)

    @pytest.mark.parametrize("offset", [None, -1, 1])
    def test_burn_in_around_block_size(self, offset):
        burn_in = 1 if offset is None else 2**16 // 3 + offset
        center = self.center(10, 72)
        z, (ratio,) = LAPLACE.release(RngState(73), center, 0.02, burn_in=burn_in)
        want, accepted = reference_chains(RngState(73).substream(0), center, 0.02, burn_in)
        assert ratio == accepted / burn_in
        assert_close_in_norm(z, want)

    def test_chain_stack_matches_reference_loop(self):
        # three chains over two full blocks and a short one
        center = self.center(5, 78)
        burn_in = 2 * (2**16 // 9) + 5
        states, ratio = _laplace_chains(RngState(79), center, 0.1, burn_in, 3)
        want, accepted = reference_chains(RngState(79), center, 0.1, burn_in, n_chains=3)
        assert ratio == accepted / (3 * burn_in)
        for z, w in zip(states, want):
            assert_close_in_norm(z, w)

    def test_single_chain_copies_no_block_to_lists(self):
        # a 10^4-step block is three (b, 1) draws of 80 KB each; read through
        # lists, each would add a list and 10^4 float objects
        center = self.center(30, 76)
        _laplace_chains(RngState(77), center, 0.05, 10_000)  # warm-up
        assert peak_bytes(_laplace_chains, RngState(77), center, 0.05, 10_000) < 500_000

    @pytest.mark.parametrize("k", [2, 5])
    def test_single_chain_equals_chain_stack(self, k):
        summary = sample_synthetic_spd(RngState(74), k, 0.25)
        center = vecd_stack(logm_stack(summary.entries))
        z, ratio = _laplace_chains(RngState(75), center, 0.3, 2000)
        assert z.shape == (1, center.size)
        stack, stack_ratio = laplace_chains_stack(RngState(75), summary, 0.3, burn_in=2000,
                                                  n_chains=1)
        assert np.array_equal(stack, expm_stack(invvecd_stack(z, k))) and stack_ratio == ratio

    @pytest.mark.parametrize("k", [1, 3])
    def test_chain_entry_points_agree_for_one_chain(self, k):
        # one chain of laplace_chains_stack on substream 0 is the one-trial
        # release of the chain row, exported, bit for bit
        summary = sample_synthetic_spd(RngState(85), k, 0.25)
        rng = RngState(86, (4,))
        stack, stack_ratio = laplace_chains_stack(rng.substream(0), summary, 0.3, 1500, n_chains=1)
        (z,), (ratio,) = LAPLACE.release(rng, LAPLACE.center(logm_stack(summary.entries)), 0.3,
                                         burn_in=1500)
        assert np.array_equal(stack[0], LAPLACE.export(z, k).entries) and stack_ratio == ratio

    @pytest.mark.parametrize("per_trial_centers", [False, True])
    def test_trials_are_one_trial_releases_on_substreams(self, per_trial_centers):
        # trial t of a chain release is the one-chain run on rng.substream(t),
        # bit for bit, so the first trial is a one-trial release on rng
        trials, burn_in, sigma = 5, 300, 0.2
        rng = RngState(84, (1, 2))
        center = self.center(3, 83)
        centers = center + np.arange(trials)[:, None] if per_trial_centers else center
        z, ratios = LAPLACE.release(rng, centers, sigma, trials, burn_in=burn_in)
        assert z.shape == (trials, center.size) and ratios.shape == (trials,)
        for t, c in enumerate(np.broadcast_to(centers, z.shape)):
            want, ratio = _laplace_chains(rng.substream(t), c, sigma, burn_in)
            assert np.array_equal(z[t], want[0]) and ratios[t] == ratio
        first, (ratio,) = LAPLACE.release(rng, centers[:1] if per_trial_centers else center,
                                          sigma, burn_in=burn_in)
        assert np.array_equal(first, z[:1]) and ratio == ratios[0]

    def test_tracked_distance_exact_in_high_dimension(self):
        center = self.center(30, 76)
        sigma = 2.0 * math.sqrt(30) * 0.25 / 500 / 0.1
        z, (ratio,) = LAPLACE.release(RngState(77), center, sigma, burn_in=1000)
        want, accepted = reference_chains(RngState(77).substream(0), center, sigma, 1000)
        assert 0 < accepted < 1000 and ratio == accepted / 1000
        dist = np.linalg.norm(want - center)
        assert np.linalg.norm(z - center) == pytest.approx(dist, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [2, 5])
    def test_law_of_cartesian_chain(self, k):
        # same start and burn-in: the final radius, the acceptance ratio and
        # the direction have the full-state chain's law, not only at
        # stationarity
        d, n, sigma, burn_in = k * (k + 1) // 2, 3000, 0.3, 25
        center = self.center(k, 80)
        states, ratio = _laplace_chains(RngState(81), center, sigma, burn_in, n)
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
        (z,), _ = MECHANISMS["tangent_analytic"].release(RngState(61).substream(k), center, 0.3)
        out = MECHANISMS["tangent_analytic"].export(z, k)
        utility = float((z - center) @ (z - center))
        assert utility == pytest.approx(le_distance(summary, out) ** 2, rel=1e-9)

    def test_center_export_round_trip(self):
        summary = SpdMatrix([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.7]])
        z = np.array([0.1, -0.2, 0.05, 0.3, 0.0, -0.4])
        log = logm_stack(summary.entries)
        for name, row in MECHANISMS.items():
            center = row.center(log)
            chart = log if row.log_chart else expm_stack(log)
            assert np.array_equal(center, vecd_stack(chart)), name
            assert np.allclose(row.export(center, 3).entries, summary.entries, rtol=0, atol=1e-12)
            # an extrinsic release need not be SPD, so it has no log to center
            released = row.export(z, 3).entries
            back = row.center(logm_stack(released)) if row.log_chart else vecd_stack(released)
            assert np.allclose(back, z, rtol=0, atol=1e-12)

    def test_cores_validate(self):
        with pytest.raises(DimensionError):
            LAPLACE.release(RngState(1), np.zeros(4), 1.0, burn_in=10)
        with pytest.raises(DomainError):
            LAPLACE.release(RngState(1), np.zeros(3), 1.0, burn_in=0)

    @pytest.mark.parametrize("name", MECHANISMS)
    def test_release_validates_center_and_sigma(self, name):
        # one check for every row: d = 4 is no k(k+1)/2, and sigma must be
        # positive, before any draw
        row, rng = MECHANISMS[name], RngState(1)
        for center, trials in ((np.zeros(4), 1), (np.zeros((2, 4)), 2), (np.zeros((2, 3)), 3),
                               (np.zeros(0), 1), (np.zeros(()), 1)):
            with pytest.raises(DimensionError, match="k\\(k\\+1\\)/2"):
                row.release(rng, center, 1.0, trials, burn_in=10)
        for sigma in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="sigma must be positive"):
                row.release(rng, np.zeros(3), sigma, burn_in=10)
        assert rng.generator.random() == RngState(1).generator.random()


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

