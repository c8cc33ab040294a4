"""Deterministic, seedable randomness, synthetic SPD data and the log-Gaussian
density on SPD(k).

All randomness in the package flows through :class:`RngState`, a thin wrapper
over a counter-based Philox generator.  Substreams forked with
:meth:`RngState.substream` are statistically independent and reproducible, so
parallel work keyed by a path such as (cell, trial) replays bit-exactly
regardless of scheduling.

Synthetic data E diag(l) E^T (l uniform in [e^-r, e^r], E Haar) is drawn
n matrices at once (n = 1 for one SPD matrix) as n·k uniforms then n·k²
normals.  E is a QR factor without the sign fix that makes it exactly Haar
(which :func:`haar_orthogonal` keeps): the fix flips columns of E by ±1,
which cancels exactly in E diag(l) E^T.

The log-Gaussian distribution LN(M, sigma^2 I) is the distribution on SPD(k)
whose vectorised matrix logarithm is Gaussian: vecd(log X) ~ N(vecd(log M),
sigma^2 I): the law of the tangent Gaussian mechanism's release, which
:func:`spdprivacy.mechanisms.tangent_gaussian_stack` samples.  The density
additionally carries the volume term of the log chart, exposed here via
:func:`log_jacobian`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .geometry import SpdMatrix, _rebuild, logm_stack, vecd_stack

# Two eigenvalues count as equal when their gap is below this relative
# tolerance; the pairwise volume factor then uses its continuous limit.
EQUAL_EIG_RTOL = 1e-12

# Largest r whose e^r is finite: the synthetic eigenvalue range [e^-r, e^r].
_MAX_SYNTHETIC_R = float(np.log(np.finfo(float).max))


def _nonnegative_int(value, what: str = "stream path element") -> int:
    """``value`` as a Python int, or :class:`DomainError` when it is not a
    nonnegative integer (floats are rejected, not truncated)."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be a nonnegative integer, got {value!r}") from None
    if value < 0:
        raise DomainError(f"{what} must be a nonnegative integer, got {value}")
    return value


class RngState:
    """Deterministic random stream with reproducible substreams.

    Identical ``(seed, stream)`` plus an identical call sequence yields
    bit-identical outputs.  A state is single-owner: fork substreams for
    concurrent work instead of sharing one state across threads.  Stream
    path elements are nonnegative integers of any size.
    """

    __slots__ = ("seed", "stream", "generator")

    def __init__(self, seed: int, stream: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise DomainError("seed must be an unsigned 64-bit integer")
        self.seed = seed
        self.stream = tuple(_nonnegative_int(s) for s in stream)
        sequence = np.random.SeedSequence(entropy=seed, spawn_key=self.stream)
        self.generator = np.random.Generator(np.random.Philox(sequence))

    def substream(self, *path: int) -> "RngState":
        """Fork an independent stream keyed by ``path`` under the same seed."""
        return RngState(self.seed, self.stream + path)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, stream={self.stream})"


@dataclass(frozen=True)
class LogGaussianParams:
    """Mean and isotropic tangent scale of a log-Gaussian on SPD(k).

    ``sigma`` is the standard deviation per tangent coordinate (covariance
    sigma^2 I on the k(k+1)/2-dimensional tangent space).  ``sigma == 0`` is
    admitted, but the density is only defined for ``sigma > 0``.
    """

    mean: SpdMatrix
    sigma: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise DomainError(f"sigma must be a finite nonnegative real, got {self.sigma}")


def haar_orthogonal(rng: RngState, k: int) -> np.ndarray:
    """Draw a k x k orthogonal matrix from the Haar distribution.

    QR of a standard Gaussian matrix, with columns rescaled by the signs of
    the R diagonal; the sign correction is what makes the law exactly Haar
    rather than QR-convention dependent.
    """
    k = _dimension(k)
    q, r = np.linalg.qr(rng.generator.standard_normal((k, k)))
    signs = np.sign(np.diagonal(r))
    signs[signs == 0] = 1.0
    return q * signs


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


def log_gaussian_logdensity(x: SpdMatrix, params: LogGaussianParams) -> float:
    """Log density of LN(M, sigma^2 I) at ``x``."""
    if x.dim != params.mean.dim:
        raise DimensionError(f"dimension mismatch: {x.dim} vs {params.mean.dim}")
    k = x.dim
    d = k * (k + 1) // 2
    w, u = np.linalg.eigh(x.entries)
    if w[0] <= 0:
        raise DomainError("log density requires a positive definite argument")
    z = vecd_stack(_rebuild(u, np.log(w)) - logm_stack(params.mean.entries))
    if params.sigma <= 0:
        raise DomainError("density requires sigma > 0")
    scale_term = d * np.log(params.sigma)
    quad = float(z @ z) / (2.0 * params.sigma**2)
    return float(log_jacobian(w) - 0.5 * d * np.log(2.0 * np.pi) - scale_term - quad)


def _dimension(k) -> int:
    """``k`` as a Python int >= 1; floats are rejected, not truncated."""
    k = _nonnegative_int(k, "k")
    if k < 1:
        raise DimensionError("k must be >= 1")
    return k


def _check_synthetic_args(k: int, r: float, n: int = 1) -> tuple[int, int]:
    """``(k, n)`` as Python ints, once r gives a finite range [e^-r, e^r]."""
    k = _dimension(k)
    if not 0 < r <= _MAX_SYNTHETIC_R:
        raise DomainError(f"r must be in (0, {_MAX_SYNTHETIC_R:.6g}] so e^r is finite, got {r}")
    n = _nonnegative_int(n, "n")
    if n < 1:
        raise DomainError("n must be >= 1")
    return k, n


def _synthetic_factors(
    rng: RngState, k: int, r: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (n, k) uniform in [e^-r, e^r], then the unsigned QR bases
    (n, k, k) of n Gaussian blocks: n·k uniforms, then n·k² normals."""
    k, n = _check_synthetic_args(k, r, n)
    lam = rng.generator.uniform(np.exp(-r), np.exp(r), size=(n, k))
    return lam, np.linalg.qr(rng.generator.standard_normal((n, k, k)))[0]


def sample_synthetic_spd(rng: RngState, k: int, r: float) -> SpdMatrix:
    """Draw a random SPD matrix E diag(l) E^T with eigenvalues uniform in
    [e^-r, e^r] and E Haar orthogonal: the n = 1 case of
    :func:`sample_synthetic_logs`'s draw, rebuilt from l instead of ln l.

    Every draw lies in the log-Euclidean ball of radius sqrt(k) * r around
    the identity, since ||log X||_F^2 = sum (ln l_i)^2 <= k r^2.
    """
    lam, basis = _synthetic_factors(rng, k, r, 1)
    return SpdMatrix(_rebuild(basis, lam)[0])


def sample_synthetic_logs(rng: RngState, k: int, r: float, n: int) -> np.ndarray:
    """Matrix logarithms E diag(ln l) E^T of ``n`` draws with the law of
    :func:`sample_synthetic_spd`, as an (n, k, k) stack.

    The stream is n·k uniforms, then n·k² normals, so it is not that of
    ``n`` :func:`sample_synthetic_spd` calls.  E comes from one batched QR
    without the sign fix, which cancels; no eigendecomposition is needed.
    """
    lam, basis = _synthetic_factors(rng, k, r, n)
    return _rebuild(basis, np.log(lam, out=lam))
