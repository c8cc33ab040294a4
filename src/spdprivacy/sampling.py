"""Deterministic, seedable randomness and log-Gaussian sampling on SPD(k).

All randomness in the package flows through :class:`RngState`, a thin wrapper
over a counter-based Philox generator.  Substreams forked with
:meth:`RngState.substream` are statistically independent and reproducible, so
parallel trials keyed by (seed, cell, trial) replay bit-exactly regardless of
scheduling.

The log-Gaussian distribution LN(M, sigma^2 I) is the distribution on SPD(k)
whose vectorised matrix logarithm is Gaussian: vecd(log X) ~ N(vecd(log M),
sigma^2 I).  Sampling goes through that flat-chart reformulation; the density
additionally carries the volume term of the log chart, exposed here via
:func:`log_jacobian`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .geometry import (
    SpdMatrix,
    _rebuild,
    expm_stack,
    invvecd_stack,
    logm_stack,
    vecd_stack,
)

# Two eigenvalues count as equal when their gap is below this relative
# tolerance; the pairwise volume factor then uses its continuous limit.
EQUAL_EIG_RTOL = 1e-12


class RngState:
    """Deterministic random stream with reproducible substreams.

    Identical ``(seed, stream)`` plus an identical call sequence yields
    bit-identical outputs.  A state is single-owner: fork substreams for
    concurrent work instead of sharing one state across threads.
    """

    __slots__ = ("seed", "stream", "generator")

    def __init__(self, seed: int, stream: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise DomainError("seed must be an unsigned 64-bit integer")
        self.seed = seed
        self.stream = tuple(int(s) for s in stream)
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=self.stream)
        self.generator = np.random.Generator(np.random.Philox(sequence))

    def substream(self, *path: int) -> "RngState":
        """Fork an independent stream keyed by ``path`` under the same seed."""
        return RngState(self.seed, self.stream + tuple(int(p) for p in path))

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, stream={self.stream})"


@dataclass(frozen=True)
class LogGaussianParams:
    """Mean and isotropic tangent scale of a log-Gaussian on SPD(k).

    ``sigma`` is the standard deviation per tangent coordinate (covariance
    sigma^2 I on the k(k+1)/2-dimensional tangent space).  ``sigma == 0`` is
    admitted as the degenerate point mass at the mean; the density is only
    defined for ``sigma > 0``.
    """

    mean: SpdMatrix
    sigma: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise DomainError(f"sigma must be a finite nonnegative real, got {self.sigma}")


def gaussian_vector(
    rng: RngState, dim: int, mean: np.ndarray, sigma: float
) -> np.ndarray:
    """Draw one vector with i.i.d. N(mean_i, sigma^2) entries.

    ``sigma == 0`` returns ``mean`` exactly (the stream is still advanced by
    one block of ``dim`` normals, so call sequences stay aligned).
    """
    dim = int(dim)
    if dim < 1:
        raise DimensionError("dim must be >= 1")
    mean = np.asarray(mean, dtype=float)
    if mean.shape != (dim,):
        raise DimensionError(f"mean must have shape ({dim},), got {mean.shape}")
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    return mean + float(sigma) * rng.generator.standard_normal(dim)


def haar_orthogonal(rng: RngState, k: int) -> np.ndarray:
    """Draw a k x k orthogonal matrix from the Haar distribution.

    QR of a standard Gaussian matrix, with columns rescaled by the signs of
    the R diagonal; the sign correction is what makes the law exactly Haar
    rather than QR-convention dependent.
    """
    k = int(k)
    if k < 1:
        raise DimensionError("k must be >= 1")
    return _haar_from_gaussian(rng.generator.standard_normal((k, k)))


def _haar_from_gaussian(gauss: np.ndarray) -> np.ndarray:
    """Sign-corrected Q factors of a stack (..., k, k) of Gaussian matrices."""
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    q *= signs[..., None, :]
    return q


def sample_log_gaussian(rng: RngState, params: LogGaussianParams) -> SpdMatrix:
    """Draw X ~ LN(M, sigma^2 I) via X = exp(invvecd(z)), z Gaussian in the
    log chart.  ``sigma == 0`` returns the mean exactly."""
    if params.sigma == 0:
        return params.mean
    k = params.mean.dim
    d = k * (k + 1) // 2
    center = vecd_stack(logm_stack(params.mean.entries))
    z = gaussian_vector(rng, d, center, params.sigma)
    return SpdMatrix(expm_stack(invvecd_stack(z, k)))


def sample_log_gaussian_stack(
    rng: RngState, params: LogGaussianParams, size: int
) -> np.ndarray:
    """Vectorised draws from LN(M, sigma^2 I): a (size, k, k) SPD stack.

    The bulk form of :func:`sample_log_gaussian` for Monte-Carlo work; the
    two share the same law but consume the stream differently.
    """
    size = int(size)
    if size < 1:
        raise DomainError("size must be >= 1")
    k = params.mean.dim
    d = k * (k + 1) // 2
    center = vecd_stack(logm_stack(params.mean.entries))
    z = center + params.sigma * rng.generator.standard_normal((size, d))
    return expm_stack(invvecd_stack(z, k))


def log_jacobian(eigenvalues: np.ndarray) -> np.ndarray:
    """Log volume term of the log chart at matrices with the given eigenvalues.

    For eigenvalues (l_1 .. l_k) this is ``-sum_i ln l_i + sum_{i<j} ln
    h(l_i, l_j)`` with ``h`` the divided difference of ln, ``(ln l_i - ln
    l_j)/(l_i - l_j)``, evaluated as its limit ``1/l_i`` (larger eigenvalue
    first) when the pair is equal to within :data:`EQUAL_EIG_RTOL`.
    Accepts a stack (..., k) and returns shape (...).
    """
    w = np.asarray(eigenvalues, dtype=float)
    if np.any(w <= 0):
        raise DomainError("eigenvalues must be strictly positive")
    k = w.shape[-1]
    out = -np.sum(np.log(w), axis=-1)
    if k > 1:
        iu, ju = np.triu_indices(k, 1)
        lo = np.minimum(w[..., iu], w[..., ju])
        hi = np.maximum(w[..., iu], w[..., ju])
        equal = (hi - lo) <= EQUAL_EIG_RTOL * hi
        gap = np.where(equal, 1.0, hi - lo)
        h = np.where(equal, 1.0 / hi, (np.log(hi) - np.log(lo)) / gap)
        out = out + np.sum(np.log(h), axis=-1)
    return out


def log_gaussian_logdensity(
    x: SpdMatrix, params: LogGaussianParams, diag_scales: np.ndarray | None = None
) -> float:
    """Log density of LN(M, sigma^2 I) at ``x``.

    ``diag_scales``, when given, replaces the isotropic tangent covariance by
    a diagonal one with the provided per-coordinate standard deviations; this
    is a diagnostic extension, off by default.
    """
    if x.dim != params.mean.dim:
        raise DimensionError(f"dimension mismatch: {x.dim} vs {params.mean.dim}")
    k = x.dim
    d = k * (k + 1) // 2
    w, u = np.linalg.eigh(x.entries)
    if w[0] <= 0:
        raise DomainError("log density requires a positive definite argument")
    log_x = (u * np.log(w)) @ u.T
    log_x = 0.5 * (log_x + log_x.T)
    z = vecd_stack(log_x - logm_stack(params.mean.entries))
    if diag_scales is None:
        if params.sigma <= 0:
            raise DomainError("density requires sigma > 0")
        scale_term = d * np.log(params.sigma)
        quad = float(z @ z) / (2.0 * params.sigma**2)
    else:
        scales = np.asarray(diag_scales, dtype=float)
        if scales.shape != (d,):
            raise DimensionError(f"diag_scales must have shape ({d},)")
        if np.any(scales <= 0):
            raise DomainError("diag_scales must be strictly positive")
        scale_term = float(np.sum(np.log(scales)))
        quad = 0.5 * float(np.sum((z / scales) ** 2))
    return float(log_jacobian(w) - 0.5 * d * np.log(2.0 * np.pi) - scale_term - quad)


def _synthetic_factors(rng: RngState, k: int, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The draws behind one synthetic matrix, in stream order: k eigenvalues
    uniform in [e^-r, e^r], then the k x k Gaussian block of its basis."""
    lam = rng.generator.uniform(np.exp(-r), np.exp(r), size=k)
    return lam, rng.generator.standard_normal((k, k))


def _check_synthetic_args(k: int, r: float) -> int:
    k = int(k)
    if k < 1:
        raise DimensionError("k must be >= 1")
    if not (r > 0):
        raise DomainError("r must be positive")
    return k


def sample_synthetic_spd(rng: RngState, k: int, r: float) -> SpdMatrix:
    """Draw a random SPD matrix E diag(l) E^T with eigenvalues uniform in
    [e^-r, e^r] and E Haar orthogonal.

    Every draw lies in the log-Euclidean ball of radius sqrt(k) * r around
    the identity, since ||log X||_F^2 = sum (ln l_i)^2 <= k r^2.
    """
    k = _check_synthetic_args(k, r)
    lam, gauss = _synthetic_factors(rng, k, r)
    basis = _haar_from_gaussian(gauss)
    mat = (basis * lam) @ basis.T
    return SpdMatrix(0.5 * (mat + mat.T))


def sample_synthetic_logs(rng: RngState, k: int, r: float, n: int) -> np.ndarray:
    """Matrix logarithms E diag(ln l) E^T of ``n`` successive
    :func:`sample_synthetic_spd` draws, as an (n, k, k) stack.

    The draws consume ``rng`` exactly as ``n`` calls of
    :func:`sample_synthetic_spd` do; the logs come from the factors, so no
    eigendecomposition is needed.
    """
    k = _check_synthetic_args(k, r)
    n = int(n)
    if n < 1:
        raise DomainError("n must be >= 1")
    lam = np.empty((n, k))
    gauss = np.empty((n, k, k))
    for i in range(n):
        lam[i], gauss[i] = _synthetic_factors(rng, k, r)
    basis = _haar_from_gaussian(gauss)
    del gauss
    return _rebuild(basis, np.log(lam, out=lam))
