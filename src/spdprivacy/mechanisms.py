"""Privatization mechanisms for SPD-valued summaries.

:data:`MECHANISMS` names the four releases the harness and the CLI offer,
each as one :class:`Mechanism` row: its sensitivity, its noise
calibration, its chart and whether it is sampled by a chain.  A release
is ``row.export(row.release(rng, row.center(log_summary), sigma)[0][0], k)``:
the row centers the summary's matrix log as a d-vector, d = k(k+1)/2,
:meth:`Mechanism.release` perturbs it, and the row exports the result as a
k x k matrix.  :meth:`Mechanism.release` is the only code that draws
release noise and the only code that reads the row's ``chain``: it lays
out the trial streams of both row kinds, so a cell of trials is one call.

The tangent Gaussian mechanism (center + sigma * N around vecd(log
summary), exported through expm) always outputs an SPD matrix, and the
squared log-Euclidean deviation from the summary is exactly
sigma^2 chi^2_d distributed.  The extrinsic Gaussian baseline perturbs the
summary's own entries in SYM(k) and may leave the SPD cone.  The
Riemannian Laplace baseline (the chain row) samples a density
proportional to exp(-distance/sigma) with a Metropolis chain run in the
flat log chart.  Target and proposal are both invariant under rotations
about the center, so the chain runs on its distance to the center alone:
three scalars per step, drawn in blocks of up to 2^16 doubles after one
direction draw that fixes both the start and the output direction.  One
kernel, :func:`_laplace_chains`, runs every chain: a release's single
chain per trial on Python floats, the many chains of
:func:`laplace_chains_stack` in numpy's vector loop.

Noise calibration comes in two flavors: the classical closed form
``sensitivity * sqrt(2 ln(1.25/delta)) / epsilon`` (valid for epsilon < 1)
and the analytic calibration, which bisects for the smallest sigma
satisfying the exact Gaussian-mechanism privacy condition and is never
worse than the classical value.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericalError, _checked_int
from .geometry import (
    LOG_FLOAT64_MAX,
    SpdMatrix,
    SymMatrix,
    expm_stack,
    invvecd_stack,
    logm_stack,
    vecd_stack,
)
from .sampling import RngState, _check_radius

# Metropolis acceptance ratios outside this band get a warning diagnostic.
ACCEPTANCE_BAND = (0.2, 0.9)

# Doubles a Laplace chain run draws per block, three per chain and step (the
# proposal's radial part, its orthogonal squared norm and the acceptance
# uniform): a block is max(1, min(burn_in, _BLOCK_DOUBLES // (3 * n_chains)))
# steps, whatever d.
_BLOCK_DOUBLES = 2**16

# Bisection bracket for the analytic calibration, as multiples of the
# sensitivity, and its relative convergence width.
_ANALYTIC_BRACKET = (1e-6, 1e6)
_ANALYTIC_RTOL = 1e-12


class SensitivityKind(str, enum.Enum):
    LOG_EUCLIDEAN = "log_euclidean"
    EXTRINSIC = "extrinsic"


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) privacy budget; delta strictly inside (0, 1)."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise DomainError(f"epsilon must be a positive real, got {self.epsilon}")
        if not (0.0 < self.delta < 1.0):
            raise DomainError(f"delta must lie in (0, 1), got {self.delta}")


@dataclass(frozen=True)
class Sensitivity:
    """Worst-case summary displacement over adjacent datasets."""

    value: float
    kind: SensitivityKind

    def __post_init__(self) -> None:
        if not (self.value >= 0 and math.isfinite(self.value)):
            raise DomainError(f"sensitivity must be finite and nonnegative, got {self.value}")


def sensitivity_frechet_le(n: int, r: float) -> Sensitivity:
    """Sensitivity 2r/n of the log-Euclidean Fréchet mean over datasets of
    size n inside a geodesic ball of radius r."""
    n = _checked_int(n, "n")
    if not (r > 0):
        raise DomainError("r must be positive")
    return Sensitivity(value=2.0 * r / n, kind=SensitivityKind.LOG_EUCLIDEAN)


def sensitivity_extrinsic(n: int, r: float) -> Sensitivity:
    """Euclidean sensitivity 2r e^r/n of the Fréchet mean viewed as an
    element of SYM(k), for data in a log-Euclidean ball of radius r.

    Swapping one point moves the mean log by at most 2r/n inside the ball of
    radius r, and the matrix exponential is e^r-Lipschitz in Frobenius norm
    there (Higham, Functions of Matrices, 2008).
    """
    n = _checked_int(n, "n")
    _check_radius(r)
    return Sensitivity(value=2.0 * r * math.exp(r) / n, kind=SensitivityKind.EXTRINSIC)


def _std_normal_cdf(x: float) -> float:
    # erfc keeps full precision in the far tails where 1 - Phi cancels.
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _at_unit_exponent(
    scale: Callable[[float], float], sensitivity: Sensitivity, budget: PrivacyBudget
) -> float:
    """``scale(D)`` for a noise scale proportional to the sensitivity D.

    ``scale`` runs at D 2^-e, e the binary exponent of D, an exact scaling
    to [0.5, 1) that keeps its work inside float64's normal range for every
    D (unless epsilon alone takes it out, as D / epsilon at epsilon above
    about 2e307 does), and its result is scaled back by 2^e: bit for bit
    ``scale(D)`` wherever that stays in the normal range, rounded up to the
    subnormal grid where it lands below it, and :class:`DomainError` where
    it overflows.
    """
    e = math.frexp(sensitivity.value)[1]
    scaled = scale(math.ldexp(sensitivity.value, -e))
    # math.ldexp raises, not returns inf, past float64's exponent range
    sigma = math.ldexp(scaled, e) if e + math.frexp(scaled)[1] <= 1024 else math.inf
    if math.ldexp(sigma, -e) < scaled:  # rounded down to a subnormal
        sigma = math.nextafter(sigma, math.inf)
    if not math.isfinite(sigma):
        raise DomainError(
            f"noise scale overflows float64 for sensitivity {sensitivity.value} "
            f"and epsilon {budget.epsilon}"
        )
    return sigma


def calibrate_classical(sensitivity: Sensitivity, budget: PrivacyBudget) -> float:
    """Closed-form noise scale Delta * sqrt(2 ln(1.25/delta)) / epsilon."""
    if budget.epsilon >= 1:
        raise DomainError(
            f"classical calibration requires epsilon < 1 (got {budget.epsilon}); "
            "use the analytic calibration instead"
        )
    if sensitivity.value <= 0:
        raise DomainError("classical calibration requires a positive sensitivity")
    factor = math.sqrt(2.0 * math.log(1.25 / budget.delta))
    return _at_unit_exponent(lambda d: d * factor / budget.epsilon, sensitivity, budget)


def _analytic_condition(sigma: float, delta_s: float, epsilon: float) -> float:
    a = delta_s / (2.0 * sigma) - epsilon * sigma / delta_s
    b = -delta_s / (2.0 * sigma) - epsilon * sigma / delta_s
    return _std_normal_cdf(a) - math.exp(epsilon) * _std_normal_cdf(b)


def calibrate_analytic(sensitivity: Sensitivity, budget: PrivacyBudget) -> float:
    """Smallest sigma meeting the exact Gaussian privacy condition.

    Bisects Phi(D/2s - es/D) - e^eps Phi(-D/2s - es/D) <= delta, which is
    continuous and strictly decreasing in sigma, to relative width 1e-12.
    The result never exceeds the classical scale when epsilon < 1.

    The condition reads only s/D, so the bisection runs at a D in [0.5, 1),
    where its bracket stays inside float64's normal range
    (:func:`_at_unit_exponent`).
    """
    if sensitivity.value <= 0:
        raise DomainError("analytic calibration requires a positive sensitivity")
    eps, delta = budget.epsilon, budget.delta
    if eps > LOG_FLOAT64_MAX:
        raise DomainError(
            f"analytic calibration requires epsilon <= {LOG_FLOAT64_MAX:.6g} "
            f"so e^epsilon is finite, got {eps}"
        )
    return _at_unit_exponent(lambda d: _analytic_root(d, eps, delta), sensitivity, budget)


def _analytic_root(delta_s: float, eps: float, delta: float) -> float:
    """The bisection of :func:`calibrate_analytic` at sensitivity ``delta_s``."""
    lo = delta_s * _ANALYTIC_BRACKET[0]
    hi = delta_s * _ANALYTIC_BRACKET[1]
    if _analytic_condition(lo, delta_s, eps) <= delta:
        hi = lo
    elif _analytic_condition(hi, delta_s, eps) > delta:
        raise NumericalError(
            f"analytic calibration bracket failed for eps={eps}, delta={delta}"
        )
    while hi - lo > _ANALYTIC_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if _analytic_condition(mid, delta_s, eps) <= delta:
            hi = mid
        else:
            lo = mid
    return hi


def _calibrate_pure(sensitivity: Sensitivity, budget: PrivacyBudget) -> float:
    """Pure-DP Laplace scale D / epsilon; delta plays no role.

    Below float64's normal range the scale is the smallest point of the
    subnormal grid (multiples of 2^-1074) at or above the exact quotient,
    the ceiling of D 2^1074 / epsilon taken on integer ratios.  The float
    quotient cannot give it: it is rounded to nearest before
    :func:`_at_unit_exponent` rounds it up to the grid, so it can land one
    grid point short (0.75 / 0.3 rounds down to 2.5), and for epsilon above
    about 2e307 the quotient at D 2^-e is itself subnormal and its rounding
    error, scaled back, spans up to two grid points.
    """
    sigma = _at_unit_exponent(lambda d: d / budget.epsilon, sensitivity, budget)
    if sigma < 2.0**-1022:
        d, d_den = sensitivity.value.as_integer_ratio()
        e, e_den = budget.epsilon.as_integer_ratio()
        sigma = math.ldexp(-(-(d * e_den << 1074) // (d_den * e)), -1074)
    return sigma


@dataclass(frozen=True)
class Mechanism:
    """One release of the Fréchet mean, as a row of :data:`MECHANISMS`:
    :meth:`release` between :meth:`center` and :meth:`export`."""

    sensitivity: Callable[[int, float], Sensitivity]
    calibrate: Callable[[Sensitivity, PrivacyBudget], float]
    log_chart: bool = True
    chain: bool = False

    def noise_scale(self, n: int, radius: float, epsilon: float, delta: float) -> float:
        """Noise scale for a summary of ``n`` points in a ball of ``radius``."""
        return self.calibrate(self.sensitivity(n, radius), PrivacyBudget(epsilon, delta))

    def center(self, log: np.ndarray) -> np.ndarray:
        """The release center of the summary whose matrix log is ``log``:
        vecd(log) in the log chart, else vecd(expm(log)), the summary's own
        entries."""
        return vecd_stack(log if self.log_chart else expm_stack(log))

    def release(
        self,
        rng: RngState,
        center: np.ndarray,
        sigma: float,
        trials: int = 1,
        *,
        burn_in: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``trials`` releases around ``center``, a d-vector or one row per
        trial (trials, d), d = k(k+1)/2: a fresh (trials, d) block z and each
        trial's acceptance ratio (trials,), None for a Gaussian row.  The
        utility of trial t is ||z[t] - center||^2.

        A Gaussian row draws one ``standard_normal((trials, d))`` block N
        and overwrites it with ``center + sigma * N``, ``sigma * N``
        rounded first; row t of N is trial t's noise whatever ``trials``.

        A chain row needs ``burn_in``.  Trial t runs one Metropolis chain
        targeting exp(-||z - center||/sigma) on ``rng.substream(t)``
        (:func:`_laplace_chains`, which checks ``burn_in`` and sigma before
        its draws), so trial t's release does not depend on ``trials``; the
        trials run one after another on the calling thread, since a chain
        steps on Python floats and holds the GIL.  A chain's stream is one
        ``standard_normal((1, d))`` direction, then per block of
        b = min(burn_in, 2^16 // 3) steps (the last may be shorter)
        ``standard_normal((b, 1))`` radial steps, scaled by sigma,
        ``standard_gamma((d - 1)/2, (b, 1))`` orthogonal squared norms,
        scaled by 2 sigma^2 (not drawn when d = 1), and ``random((b, 1))``
        acceptance uniforms.  It runs on its distance r to the center from
        r = d*sigma and ends at center + r*u, u its normalised direction
        draw.
        """
        trials = _checked_int(trials, "trials")
        if not (sigma > 0):
            raise DomainError("sigma must be positive")
        center = np.asarray(center, dtype=float)
        _ambient_dim(center, trials)
        shape = (trials, center.shape[-1])
        if not self.chain:
            noise = rng.generator.standard_normal(shape)
            noise *= float(sigma)
            noise += center
            return noise, None
        centers = np.broadcast_to(center, shape)
        states, ratios = zip(*(
            _laplace_chains(rng.substream(t), centers[t], sigma, burn_in) for t in range(trials)
        ))
        return np.concatenate(states), np.array(ratios)

    def export(self, z: np.ndarray, k: int) -> SymMatrix:
        """The release ``z`` as a k x k matrix, the inverse of :meth:`center`:
        expm of invvecd(z), an SPD matrix, in the log chart, else invvecd(z).

        A finite log-chart release whose exponential fails the SPD check
        raises :class:`NumericalError`: its eigenvalues span more than
        float64 resolves, so the release has no float64 SPD form."""
        if not self.log_chart:
            return SymMatrix(invvecd_stack(z, k))
        mats = expm_stack(invvecd_stack(z, k))
        try:
            return SpdMatrix(mats)
        except DomainError as exc:
            raise NumericalError(
                "release is not representable in float64: the exponential of the "
                "log-chart release has eigenvalues spanning more than float64 "
                "resolves (noise scale too large for this budget and n)"
            ) from exc


MECHANISMS = {
    "tangent_classical": Mechanism(sensitivity_frechet_le, calibrate_classical),
    "tangent_analytic": Mechanism(sensitivity_frechet_le, calibrate_analytic),
    "extrinsic_analytic": Mechanism(sensitivity_extrinsic, calibrate_analytic, log_chart=False),
    "riemannian_laplace": Mechanism(sensitivity_frechet_le, _calibrate_pure, chain=True),
}


def tangent_gaussian_stack(
    rng: RngState, summary: SpdMatrix, sigma: float, size: int
) -> np.ndarray:
    """Vectorised draws of the tangent Gaussian mechanism.

    Returns a (size, k, k) array of SPD matrices, each distributed as one
    tangent Gaussian release of ``summary``; for Monte-Carlo diagnostics.
    """
    size = _checked_int(size, "size")
    row = MECHANISMS["tangent_analytic"]
    z, _ = row.release(rng, row.center(logm_stack(summary.entries)), sigma, size)
    return expm_stack(invvecd_stack(z, summary.dim))


def _ambient_dim(center: np.ndarray, trials: int = 1) -> int:
    """The k with k(k+1)/2 == d, for a center of shape (d,) or (trials, d)."""
    d = center.shape[-1] if center.ndim and center.shape[:-1] in ((), (trials,)) else 0
    k = (math.isqrt(8 * d + 1) - 1) // 2
    if k < 1 or k * (k + 1) // 2 != d:
        raise DimensionError(
            f"center of shape {center.shape} is not a (d,) or ({trials}, d) array "
            "with d = k(k+1)/2"
        )
    return k


def _laplace_chains(
    rng: RngState, center: np.ndarray, sigma: float, burn_in: int, n_chains: int = 1
) -> tuple[np.ndarray, float]:
    """Run ``n_chains`` Metropolis chains around the d-vector ``center`` in
    the log chart; return their final states (n_chains, d) and the pooled
    acceptance ratio.  ``burn_in``, ``n_chains`` and sigma (positive, with
    a finite square) are checked here, before any draw.

    The target exp(-||z - center||/sigma) is the Laplace density in the flat
    chart, whose Riemannian volume is Lebesgue measure; the proposal is an
    isotropic Gaussian step s of scale sigma there, so plain Metropolis with
    the target ratio is exact.  That ratio reads only radii: with w = z - center and
    s = alpha * w/||w|| + s_perp, the candidate's radius is
    sqrt((||w|| + alpha)^2 + ||s_perp||^2), where alpha ~ N(0, sigma^2) and
    ||s_perp||^2 ~ sigma^2 chi^2_{d-1} (0 when d = 1) are independent of
    each other and of w.  So each chain runs on its radius r alone.

    Chains start at radius d*sigma from the center (the mean radius of the
    target), which keeps the burn-in in the stationary bulk for every
    dimension; starting near the center instead leaves the chain with an
    exponentially small escape rate in high dimension.  The start direction
    is uniform and the Metropolis kernel commutes with rotations about the
    center, so a chain's final state is center + r * u with r its final
    radius and u a uniform direction independent of r: one
    ``standard_normal((n_chains, d))`` draw serves for both the start and
    the output.  The alpha, ||s_perp||^2 and log acceptance uniforms follow
    in (b, n_chains) blocks of b = :data:`_BLOCK_DOUBLES` // (3 * n_chains)
    steps (at least 1, at most burn_in), the last one shorter.

    One chain steps on Python floats, many in numpy's vector loop: one
    chain in the vector loop costs about twenty times as much per step.
    Both loops do the same float64 operations in the same order, so a
    chain's bits do not depend on the loop.
    """
    burn_in = _checked_int(burn_in, "burn_in")
    n_chains = _checked_int(n_chains, "n_chains")
    if not (sigma > 0):
        raise DomainError("sigma must be positive")
    if math.isinf(sigma * sigma):
        raise DomainError(f"proposal scale {sigma:.6g} overflows float64 when squared")
    gen = rng.generator
    d = center.shape[-1]
    directions = gen.standard_normal((n_chains, d))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    r = d * sigma if n_chains == 1 else np.full(n_chains, d * sigma)
    accepted = 0
    block = max(1, min(burn_in, _BLOCK_DOUBLES // (3 * n_chains)))
    for done in range(0, burn_in, block):
        size = (min(block, burn_in - done), n_chains)
        alpha = sigma * gen.standard_normal(size)
        if d > 1:
            q = (2.0 * sigma**2) * gen.standard_gamma((d - 1) / 2, size)
        else:
            q = np.zeros(size)
        log_u = np.log(gen.random(size))
        if n_chains == 1:
            columns = (memoryview(alpha[:, 0]), memoryview(q[:, 0]), memoryview(log_u[:, 0]))
            for a, q2, lu in zip(*columns):
                t = r + a
                cand = math.sqrt(t * t + q2)
                if lu < (r - cand) / sigma:
                    r = cand
                    accepted += 1
        else:
            for a, q2, lu in zip(alpha, q, log_u):
                t = r + a
                cand = np.sqrt(t * t + q2)
                take = lu < (r - cand) / sigma
                np.copyto(r, cand, where=take)
                accepted += int(np.count_nonzero(take))
    return center + np.reshape(r, (-1, 1)) * (directions / norms), accepted / (burn_in * n_chains)


def acceptance_warning(ratio: float) -> str | None:
    """A warning text when a chain's acceptance ratio leaves
    :data:`ACCEPTANCE_BAND`, else None."""
    if ACCEPTANCE_BAND[0] <= ratio <= ACCEPTANCE_BAND[1]:
        return None
    return (
        f"acceptance ratio {ratio:.3f} outside "
        f"[{ACCEPTANCE_BAND[0]}, {ACCEPTANCE_BAND[1]}]; "
        "check burn_in"
    )


def laplace_chains_stack(
    rng: RngState,
    summary: SpdMatrix,
    sigma: float,
    burn_in: int,
    n_chains: int,
) -> tuple[np.ndarray, float]:
    """Final states of ``n_chains`` independent Laplace chains as a
    (n_chains, k, k) SPD stack, plus the pooled acceptance ratio, run
    on ``rng`` itself (:func:`_laplace_chains`)."""
    center = MECHANISMS["riemannian_laplace"].center(logm_stack(summary.entries))
    states, ratio = _laplace_chains(rng, center, sigma, burn_in, n_chains)
    return expm_stack(invvecd_stack(states, summary.dim)), ratio
