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
flat log chart.  The chain draws its proposal steps and acceptance
uniforms in blocks of up to 2^16 doubles, after one starting-direction
draw, and tracks its distance to the center incrementally, recomputing it
exactly at every block boundary.

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

from .errors import DimensionError, DomainError, NumericalError
from .geometry import (
    SpdMatrix,
    SymMatrix,
    expm_stack,
    invvecd_stack,
    logm_stack,
    vecd_stack,
)
from .sampling import _MAX_SYNTHETIC_R, RngState, _positive_int

# Metropolis acceptance ratios outside this band get a warning diagnostic.
ACCEPTANCE_BAND = (0.2, 0.9)

# Doubles of proposal noise a Laplace chain run draws per block: a block is
# max(1, min(burn_in, _BLOCK_DOUBLES // (n_chains * d))) steps.
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
    n = _positive_int(n, "n")
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
    n = _positive_int(n, "n")
    if not 0 < r <= _MAX_SYNTHETIC_R:
        raise DomainError(f"r must be in (0, {_MAX_SYNTHETIC_R:.6g}] so e^r is finite, got {r}")
    return Sensitivity(value=2.0 * r * math.exp(r) / n, kind=SensitivityKind.EXTRINSIC)


def _std_normal_cdf(x: float) -> float:
    # erfc keeps full precision in the far tails where 1 - Phi cancels.
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def calibrate_classical(sensitivity: Sensitivity, budget: PrivacyBudget) -> float:
    """Closed-form noise scale Delta * sqrt(2 ln(1.25/delta)) / epsilon."""
    if budget.epsilon >= 1:
        raise DomainError(
            f"classical calibration requires epsilon < 1 (got {budget.epsilon}); "
            "use calibrate_analytic instead"
        )
    if sensitivity.value <= 0:
        raise DomainError("classical calibration requires a positive sensitivity")
    return (
        sensitivity.value
        * math.sqrt(2.0 * math.log(1.25 / budget.delta))
        / budget.epsilon
    )


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
    return hi


def _calibrate_pure(sensitivity: Sensitivity, budget: PrivacyBudget) -> float:
    # Pure-DP Laplace scale; delta plays no role.
    return sensitivity.value / budget.epsilon


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
        expm of invvecd(z), an SPD matrix, in the log chart, else invvecd(z)."""
        if self.log_chart:
            return SpdMatrix(expm_stack(invvecd_stack(z, k)))
        return SymMatrix(invvecd_stack(z, k))


MECHANISMS = {
    "tangent_classical": Mechanism(sensitivity_frechet_le, calibrate_classical),
    "tangent_analytic": Mechanism(sensitivity_frechet_le, calibrate_analytic),
    "extrinsic_analytic": Mechanism(sensitivity_extrinsic, calibrate_analytic, log_chart=False),
    "riemannian_laplace": Mechanism(sensitivity_frechet_le, _calibrate_pure, chain=True),
}


def gaussian_release_block(
    center: np.ndarray, sigma: float, noise: np.ndarray
) -> np.ndarray:
    """The Gaussian law on a block of standard normal rows ``noise``
    (trials, d): release ``center + sigma * noise``, with ``center`` one
    d-vector for every row or one row per trial.

    ``center`` is vecd(log summary) for the tangent mechanism, whose
    utility ||z - center||^2 is then the squared log-Euclidean deviation,
    and vecd(summary) for the extrinsic baseline."""
    if not (sigma > 0):
        raise DomainError("sigma must be positive")
    center, noise = np.asarray(center, dtype=float), np.asarray(noise, dtype=float)
    if center.size < 1 or noise.shape[max(0, noise.ndim - center.ndim) :] != center.shape:
        raise DimensionError(f"center {center.shape} is empty or does not fit noise {noise.shape}")
    return center + float(sigma) * noise


def tangent_gaussian_stack(
    rng: RngState, summary: SpdMatrix, sigma: float, size: int
) -> np.ndarray:
    """Vectorised draws of the tangent Gaussian mechanism.

    Returns a (size, k, k) array of SPD matrices, each distributed as one
    tangent Gaussian release of ``summary``; for Monte-Carlo diagnostics.
    """
    size = _positive_int(size, "size")
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
) -> tuple[np.ndarray, np.ndarray, Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Check the chain arguments, draw the starting offsets w = z - center
    (n_chains, d) and return them with the chains' proposal blocks.

    Chains start on the sphere of radius d*sigma around the center (the
    mean radius of the target), which keeps the burn-in in the stationary
    bulk for every dimension; starting near the center instead leaves the
    chain with an exponentially small escape rate in high dimension.
    """
    if not (sigma > 0):
        raise DomainError("sigma must be positive")
    burn_in = _positive_int(burn_in, "burn_in")
    n_chains = _positive_int(n_chains, "n_chains")
    if proposal_sigma is None:
        proposal_sigma = sigma
    if not (proposal_sigma > 0):
        raise DomainError("proposal_sigma must be positive")
    center = np.asarray(center, dtype=float)
    _ambient_dim(center)
    d = center.shape[0]
    gen = rng.generator
    direction = gen.standard_normal((n_chains, d))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    offsets = (d * sigma) * direction / norms
    return center, offsets, _proposal_blocks(gen, proposal_sigma, burn_in, n_chains, d)


def _proposal_blocks(
    gen: np.random.Generator, proposal_sigma: float, burn_in: int, n_chains: int, d: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield the chains' Metropolis draws block by block: proposal steps
    (b, n_chains, d), log-uniforms (b, n_chains) and the steps' squared
    norms (b, n_chains), with b = :data:`_BLOCK_DOUBLES` // (n_chains*d)
    steps (at least 1, at most burn_in) and a shorter last block."""
    block = max(1, min(burn_in, _BLOCK_DOUBLES // (n_chains * d)))
    for done in range(0, burn_in, block):
        size = min(block, burn_in - done)
        steps = proposal_sigma * gen.standard_normal((size, n_chains, d))
        log_u = np.log(gen.random((size, n_chains)))
        yield steps, log_u, np.einsum("bnd,bnd->bn", steps, steps)


def _laplace_chain(
    rng: RngState,
    center: np.ndarray,
    sigma: float,
    burn_in: int,
    proposal_sigma: float | None,
) -> tuple[np.ndarray, float, int]:
    """One Metropolis chain on Python floats; return its final state, its
    tracked distance ||z - center|| and its accepted step count.

    The same draws and acceptance rule as :func:`_laplace_chains` with
    ``n_chains=1``: the candidate's squared distance is
    dist^2 + 2<w, s> + ||s||^2 with w = z - center, and ||w|| is
    recomputed exactly at every block boundary.
    """
    center, offsets, blocks = _chain_start(rng, center, sigma, burn_in, proposal_sigma, 1)
    w = offsets[0]
    accepted = 0
    for steps, log_u, sq in blocks:
        dist2 = float(w @ w)
        dist = math.sqrt(dist2)
        for s, lu, s2 in zip(steps[:, 0], log_u[:, 0].tolist(), sq[:, 0].tolist()):
            cand2 = max(dist2 + 2.0 * float(w @ s) + s2, 0.0)
            cand = math.sqrt(cand2)
            if lu < (dist - cand) / sigma:
                w += s
                dist2, dist = cand2, cand
                accepted += 1
    return center + w, dist, accepted


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
    chart, whose Riemannian volume is Lebesgue measure; the proposal is a
    symmetric Gaussian step there, so plain Metropolis with the target
    ratio is exact.  Each step is vectorised over the chains; see
    :func:`_laplace_chain` for the distance update.
    """
    center, w, blocks = _chain_start(rng, center, sigma, burn_in, proposal_sigma, n_chains)
    accepted = 0
    for steps, log_u, sq in blocks:
        dist2 = np.einsum("nd,nd->n", w, w)
        dist = np.sqrt(dist2)
        for s, lu, s2 in zip(steps, log_u, sq):
            cand2 = np.maximum(dist2 + 2.0 * np.einsum("nd,nd->n", w, s) + s2, 0.0)
            cand = np.sqrt(cand2)
            take = lu < (dist - cand) / sigma
            # masked writes: boolean fancy indexing costs ~3x more at 10^4 chains
            np.add(w, s, out=w, where=take[:, None])
            np.copyto(dist2, cand2, where=take)
            np.copyto(dist, cand, where=take)
            accepted += int(np.count_nonzero(take))
    return center + w, accepted / (int(burn_in) * n_chains)


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
    chain's acceptance ratio.  Stream layout: ``standard_normal((1, d))``
    for the starting direction, then per block of
    b = max(1, min(burn_in, 2^16 // d)) steps (the last block may be
    shorter) ``standard_normal((b, 1, d))`` proposal steps, scaled by
    ``proposal_sigma``, followed by ``random((b, 1))`` acceptance
    uniforms.  The distance ||z - center|| is updated per accepted step
    and recomputed exactly at every block boundary.  The final state is
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

    Stream layout: ``standard_normal((n_chains, d))`` for the starting
    directions, then per block of b = max(1, min(burn_in,
    2^16 // (n_chains * d))) steps (the last block may be shorter)
    ``standard_normal((b, n_chains, d))`` proposal steps, scaled by
    ``proposal_sigma``, followed by ``random((b, n_chains))`` acceptance
    uniforms.  Each
    chain's distance to the center is updated per accepted step and
    recomputed exactly at every block boundary.
    """
    center = vecd_stack(logm_stack(summary.entries))
    states, ratio = _laplace_chains(rng, center, sigma, burn_in, proposal_sigma, n_chains)
    return expm_stack(invvecd_stack(states, summary.dim)), ratio

