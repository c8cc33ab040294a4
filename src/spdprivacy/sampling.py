"""Deterministic, seedable randomness and synthetic SPD data.

All randomness in the package flows through :class:`RngState`, a thin wrapper
over a counter-based Philox generator.  Substreams forked with
:meth:`RngState.substream` are statistically independent and reproducible, so
parallel work keyed by a path such as (cell, trial) replays bit-exactly
regardless of scheduling.

Synthetic data E diag(l) E^T (l uniform in [e^-r, e^r], E Haar) is drawn
n matrices at once (n = 1 for one SPD matrix) as n·k uniforms then n·k²
normals.  E is a QR factor without the sign fix that makes it exactly Haar
(signing its columns by the diagonal of R, Mezzadri 2007): the fix flips
columns of E by ±1, which cancels exactly in E diag(l) E^T.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionError, DomainError
from .geometry import SpdMatrix, _rebuild

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


def _positive_int(value, what: str) -> int:
    """``value`` as a Python int >= 1, else :class:`DomainError`; floats are
    rejected, not truncated."""
    value = _nonnegative_int(value, what)
    if value < 1:
        raise DomainError(f"{what} must be >= 1")
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
    return k, _positive_int(n, "n")


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
