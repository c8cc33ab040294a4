"""Privatization mechanisms for SPD-valued summaries.

:data:`MECHANISMS` names the four releases the harness and the CLI offer,
each as one :class:`Mechanism` row: its sensitivity, its noise
calibration, its chart and whether it is sampled by a chain.  A release
is ``row.export(core(rng, row.center(summary), sigma), k)``: the row
centers the summary as a d-vector, d = k(k+1)/2, one of the two vector
cores perturbs it, and the row exports the result as a k x k matrix.

The tangent Gaussian mechanism (:func:`gaussian_release_block` around
vecd(log summary), exported through expm) always outputs an SPD matrix,
and the squared log-Euclidean deviation from the summary is exactly
sigma^2 chi^2_d distributed.  The extrinsic Gaussian baseline perturbs the
summary's own entries in SYM(k) and may leave the SPD cone.  The
Riemannian Laplace baseline (:func:`laplace_release`) samples a density
proportional to exp(-distance/sigma) with a Metropolis chain run in the
flat log chart.  Target and proposal are both invariant under rotations
about the center, so the chain runs on its distance to the center alone:
three scalars per step, drawn in blocks of up to 2^16 doubles after one
direction draw that fixes both the start and the output direction.

Noise calibration comes in two flavors: the classical closed form
``sensitivity * sqrt(2 ln(1.25/delta)) / epsilon`` (valid for epsilon < 1)
and the analytic calibration, which bisects for the smallest sigma
satisfying the exact Gaussian-mechanism privacy condition and is never
worse than the classical value.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericalError, _checked_int
from .geometry import (
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

# Largest epsilon whose e^epsilon, a factor of the analytic condition, is finite.
_MAX_ANALYTIC_EPSILON = float(np.log(np.finfo(float).max))


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


def _finite_scale(sigma: float, sensitivity: Sensitivity, budget: PrivacyBudget) -> float:
    """``sigma``, or :class:`DomainError` when it overflowed to infinity."""
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
            "use calibrate_analytic instead"
        )
    if sensitivity.value <= 0:
        raise DomainError("classical calibration requires a positive sensitivity")
    sigma = sensitivity.value * math.sqrt(2.0 * math.log(1.25 / budget.delta)) / budget.epsilon
    return _finite_scale(sigma, sensitivity, budget)


def _analytic_condition(sigma: float, delta_s: float, epsilon: float) -> float:
    a = delta_s / (2.0 * sigma) - epsilon * sigma / delta_s
    b = -delta_s / (2.0 * sigma) - epsilon * sigma / delta_s
    return _std_normal_cdf(a) - math.exp(epsilon) * _std_normal_cdf(b)


def calibrate_analytic(sensitivity: Sensitivity, budget: PrivacyBudget) -> float:
    """Smallest sigma meeting the exact Gaussian privacy condition.

    Bisects Phi(D/2s - es/D) - e^eps Phi(-D/2s - es/D) <= delta, which is
    continuous and strictly decreasing in sigma, to relative width 1e-12.
    The result never exceeds the classical scale when epsilon < 1.
    """
    if sensitivity.value <= 0:
        raise DomainError("analytic calibration requires a positive sensitivity")
    delta_s = sensitivity.value
    eps, delta = budget.epsilon, budget.delta
    if eps > _MAX_ANALYTIC_EPSILON:
        raise DomainError(
            f"analytic calibration requires epsilon <= {_MAX_ANALYTIC_EPSILON:.6g} "
            f"so e^epsilon is finite, got {eps}"
        )
    lo = delta_s * _ANALYTIC_BRACKET[0]
    hi = delta_s * _ANALYTIC_BRACKET[1]
    if _analytic_condition(lo, delta_s, eps) <= delta:
        return lo
    if _analytic_condition(hi, delta_s, eps) > delta:
        raise NumericalError(
            f"analytic calibration bracket failed for eps={eps}, delta={delta}"
        )
    while hi - lo > _ANALYTIC_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if _analytic_condition(mid, delta_s, eps) <= delta:
            hi = mid
        else:
            lo = mid
    return _finite_scale(hi, sensitivity, budget)


def _calibrate_pure(sensitivity: Sensitivity, budget: PrivacyBudget) -> float:
    # Pure-DP Laplace scale; delta plays no role.
    return _finite_scale(sensitivity.value / budget.epsilon, sensitivity, budget)


@dataclass(frozen=True)
class Mechanism:
    """One release of the Fréchet mean, as a row of :data:`MECHANISMS`.

    A chain release is one :func:`laplace_release`, any other one
    :func:`gaussian_release_block` on a draw of d standard normals, between
    :meth:`center` and :meth:`export`.
    """

    sensitivity: Callable[[int, float], Sensitivity]
    calibrate: Callable[[Sensitivity, PrivacyBudget], float]
    log_chart: bool = True
    chain: bool = False

    def noise_scale(self, n: int, radius: float, epsilon: float, delta: float) -> float:
        """Noise scale for a summary of ``n`` points in a ball of ``radius``."""
        return self.calibrate(self.sensitivity(n, radius), PrivacyBudget(epsilon, delta))

    def center(self, summary: SpdMatrix) -> np.ndarray:
        """The release center of ``summary``: vecd(log summary) in the log
        chart, else vecd(summary)."""
        return vecd_stack(logm_stack(summary.entries) if self.log_chart else summary.entries)

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


def gaussian_release_block(
    center: np.ndarray, sigma: float, noise: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The Gaussian law on a block of standard normal rows ``noise``
    (trials, d): release ``center + sigma * noise``, with ``center`` one
    d-vector for every row or one row per trial.

    ``center`` is vecd(log summary) for the tangent mechanism, whose
    utility ||z - center||^2 is then the squared log-Euclidean deviation,
    and vecd(summary) for the extrinsic baseline.

    The release is written to ``out`` (of ``noise``'s shape) when given,
    and ``out=noise`` overwrites the noise in place; with ``out=None``
    ``noise`` is left untouched.  Either way ``sigma * noise`` is rounded
    first and the center added second, so every element is the one
    ``center + sigma * noise`` gives.  The harness passes ``out=noise``:
    one block, reused by every Gaussian cell of a run, is filled with the
    cell's normals (the stream of a fresh (trials, d) draw) and then
    overwritten in place by the release."""
    if not (sigma > 0):
        raise DomainError("sigma must be positive")
    center, noise = np.asarray(center, dtype=float), np.asarray(noise, dtype=float)
    if center.size < 1 or noise.shape[max(0, noise.ndim - center.ndim) :] != center.shape:
        raise DimensionError(f"center {center.shape} is empty or does not fit noise {noise.shape}")
    if out is not None and out.shape != noise.shape:
        raise DimensionError(f"out {out.shape} does not match noise {noise.shape}")
    out = np.multiply(float(sigma), noise, out=out)
    out += center
    return out


def tangent_gaussian_stack(
    rng: RngState, summary: SpdMatrix, sigma: float, size: int
) -> np.ndarray:
    """Vectorised draws of the tangent Gaussian mechanism.

    Returns a (size, k, k) array of SPD matrices, each distributed as one
    tangent Gaussian release of ``summary``; for Monte-Carlo diagnostics.
    """
    size = _checked_int(size, "size")
    center = vecd_stack(logm_stack(summary.entries))
    noise = rng.generator.standard_normal((size, center.size))
    return expm_stack(invvecd_stack(gaussian_release_block(center, sigma, noise), summary.dim))


def _ambient_dim(center: np.ndarray) -> int:
    """The k with k(k+1)/2 == len(center), for a log-chart vector."""
    d = center.shape[0] if center.ndim == 1 else 0
    k = (math.isqrt(8 * d + 1) - 1) // 2
    if k < 1 or k * (k + 1) // 2 != d:
        raise DimensionError(
            f"center of shape {center.shape} is not a vector of length k(k+1)/2"
        )
    return k


def _chain_start(
    rng: RngState,
    center: np.ndarray,
    sigma: float,
    burn_in: int,
    proposal_sigma: float | None,
    n_chains: int,
) -> tuple[np.ndarray, np.ndarray, float, Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Check the chain arguments, draw one unit direction per chain
    (n_chains, d) and return the directions with the start radius and the
    chains' radial blocks.

    Chains start at radius d*sigma from the center (the mean radius of the
    target), which keeps the burn-in in the stationary bulk for every
    dimension; starting near the center instead leaves the chain with an
    exponentially small escape rate in high dimension.  The start direction
    is uniform and the Metropolis kernel commutes with rotations about the
    center, so a chain's final state is center + r * u with r its final
    radius and u a uniform direction independent of r: one draw serves for
    both the start and the output.
    """
    if not (sigma > 0):
        raise DomainError("sigma must be positive")
    burn_in = _checked_int(burn_in, "burn_in")
    n_chains = _checked_int(n_chains, "n_chains")
    if proposal_sigma is None:
        proposal_sigma = sigma
    if not (proposal_sigma > 0):
        raise DomainError("proposal_sigma must be positive")
    if math.isinf(proposal_sigma * proposal_sigma):
        raise DomainError(f"proposal scale {proposal_sigma:.6g} overflows float64 when squared")
    center = np.asarray(center, dtype=float)
    _ambient_dim(center)
    d = center.shape[0]
    directions = rng.generator.standard_normal((n_chains, d))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    blocks = _proposal_blocks(rng, proposal_sigma, burn_in, n_chains, d)
    return center, directions / norms, d * sigma, blocks


def _proposal_blocks(
    rng: RngState, proposal_sigma: float, burn_in: int, n_chains: int, d: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the chains' Metropolis draws block by block, each (b, n_chains):
    the proposal step's component alpha ~ N(0, proposal_sigma^2) along the
    state's direction, the squared norm q ~ proposal_sigma^2 chi^2_{d-1} of
    its orthogonal part (0 when d = 1) and the log acceptance uniforms, with
    b = :data:`_BLOCK_DOUBLES` // (3 * n_chains) steps (at least 1, at most
    burn_in) and a shorter last block."""
    gen = rng.generator
    block = max(1, min(burn_in, _BLOCK_DOUBLES // (3 * n_chains)))
    for done in range(0, burn_in, block):
        size = (min(block, burn_in - done), n_chains)
        alpha = proposal_sigma * gen.standard_normal(size)
        if d > 1:
            q = (2.0 * proposal_sigma**2) * gen.standard_gamma((d - 1) / 2, size)
        else:
            q = np.zeros(size)
        yield alpha, q, np.log(gen.random(size))


def _laplace_chain(
    rng: RngState,
    center: np.ndarray,
    sigma: float,
    burn_in: int,
    proposal_sigma: float | None,
) -> tuple[np.ndarray, float, int]:
    """One Metropolis chain on Python floats; return its final state, its
    distance r = ||z - center|| and its accepted step count.

    The same draws and acceptance rule as :func:`_laplace_chains` with
    ``n_chains=1``.
    """
    center, directions, r, blocks = _chain_start(rng, center, sigma, burn_in, proposal_sigma, 1)
    accepted = 0
    for alpha, q, log_u in blocks:
        for a, q2, lu in zip(alpha[:, 0].tolist(), q[:, 0].tolist(), log_u[:, 0].tolist()):
            t = r + a
            cand = math.sqrt(t * t + q2)
            if lu < (r - cand) / sigma:
                r = cand
                accepted += 1
    return center + r * directions[0], r, accepted


def _laplace_chains(
    rng: RngState,
    center: np.ndarray,
    sigma: float,
    burn_in: int,
    proposal_sigma: float | None,
    n_chains: int,
) -> tuple[np.ndarray, float]:
    """Run ``n_chains`` Metropolis chains in the log chart; return final
    states (n_chains, d) and the pooled acceptance ratio.

    The target exp(-||z - center||/sigma) is the Laplace density in the flat
    chart, whose Riemannian volume is Lebesgue measure; the proposal is an
    isotropic Gaussian step s there, so plain Metropolis with the target
    ratio is exact.  That ratio reads only radii: with w = z - center and
    s = alpha * w/||w|| + s_perp, the candidate's radius is
    sqrt((||w|| + alpha)^2 + ||s_perp||^2), where alpha and ||s_perp||^2
    are independent of each other and of w.  So each chain runs on its
    radius r alone, vectorised over the chains, and its direction is drawn
    once (see :func:`_chain_start`).
    """
    center, directions, start, blocks = _chain_start(
        rng, center, sigma, burn_in, proposal_sigma, n_chains
    )
    r = np.full(n_chains, start)
    accepted = 0
    for alpha, q, log_u in blocks:
        for a, q2, lu in zip(alpha, q, log_u):
            t = r + a
            cand = np.sqrt(t * t + q2)
            take = lu < (r - cand) / sigma
            np.copyto(r, cand, where=take)
            accepted += int(np.count_nonzero(take))
    return center + r[:, None] * directions, accepted / (int(burn_in) * n_chains)


def acceptance_warning(ratio: float) -> str | None:
    """A warning text when a chain's acceptance ratio leaves
    :data:`ACCEPTANCE_BAND`, else None."""
    if ACCEPTANCE_BAND[0] <= ratio <= ACCEPTANCE_BAND[1]:
        return None
    return (
        f"acceptance ratio {ratio:.3f} outside "
        f"[{ACCEPTANCE_BAND[0]}, {ACCEPTANCE_BAND[1]}]; "
        "check proposal_sigma and burn_in"
    )


def laplace_release(
    rng: RngState,
    center: np.ndarray,
    sigma: float,
    burn_in: int = 50000,
    proposal_sigma: float | None = None,
) -> tuple[np.ndarray, float]:
    """Core of the Riemannian Laplace release: one Metropolis chain targeting
    exp(-||z - center||/sigma) in log-chart coordinates.

    Returns the final state z (so the utility is ||z - center||^2) and the
    chain's acceptance ratio.  The chain runs on its radius
    r = ||z - center||, from r = d*sigma, and z = center + r*u with u the
    normalised direction draw.  Stream layout: ``standard_normal((1, d))``
    for the direction, then per block of b = max(1, min(burn_in,
    2^16 // 3)) steps (the last block may be shorter)
    ``standard_normal((b, 1))`` radial proposal components, scaled by
    ``proposal_sigma``, ``standard_gamma((d - 1)/2, (b, 1))`` orthogonal
    squared norms, scaled by 2 proposal_sigma^2 (not drawn when d = 1),
    and ``random((b, 1))`` acceptance uniforms.  The final state is
    bit-identical to :func:`laplace_chains_stack` with ``n_chains=1``.
    """
    z, _, accepted = _laplace_chain(rng, center, sigma, burn_in, proposal_sigma)
    return z, accepted / int(burn_in)


def laplace_chains_stack(
    rng: RngState,
    summary: SpdMatrix,
    sigma: float,
    burn_in: int,
    n_chains: int,
    proposal_sigma: float | None = None,
) -> tuple[np.ndarray, float]:
    """Final states of ``n_chains`` independent Laplace chains as a
    (n_chains, k, k) SPD stack, plus the pooled acceptance ratio.

    Stream layout: ``standard_normal((n_chains, d))`` for the chains'
    directions, then per block of b = max(1, min(burn_in,
    2^16 // (3 * n_chains))) steps (the last block may be shorter)
    ``standard_normal((b, n_chains))`` radial proposal components, scaled
    by ``proposal_sigma``, ``standard_gamma((d - 1)/2, (b, n_chains))``
    orthogonal squared norms, scaled by 2 proposal_sigma^2 (not drawn when
    d = 1), and ``random((b, n_chains))`` acceptance uniforms.  Each chain
    runs on its distance r to the center, from r = d*sigma, and ends at
    center + r*u with u its normalised direction draw.
    """
    center = vecd_stack(logm_stack(summary.entries))
    states, ratio = _laplace_chains(rng, center, sigma, burn_in, proposal_sigma, n_chains)
    return expm_stack(invvecd_stack(states, summary.dim)), ratio

