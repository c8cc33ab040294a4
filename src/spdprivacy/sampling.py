"""Deterministic, seedable randomness and synthetic SPD data.

All randomness in the package flows through :class:`RngState`, a thin wrapper
over numpy's SFC64 generator, chosen over Philox because it draws the
453,600 normals of a k = 30, n = 500 dataset in 6.3–6.9 ms against
10.0–10.1 ms on one core of a 2-vCPU VM; neither is cryptographic, so the
choice leaves the threat model as it was.  Substreams forked with :meth:`RngState.substream` are
seeded by distinct ``SeedSequence`` spawn keys, statistically independent
and reproducible, so a draw keyed by a path such as (cell, trial) replays
bit-exactly whatever was drawn before it.

Synthetic data E diag(l) E^T (l uniform in [e^-r, e^r], E Haar) is drawn
as n·k uniforms, then n·k² normals (n = 1 for one SPD matrix).  The normals
are streamed in blocks of at most ``geometry._FOLD_DOUBLES`` doubles (one
matrix when k² is larger), in the order of a single (n, k, k) draw, so
the stream is that of one draw, and each block is rebuilt into a fresh
array.  This module only draws:
``geometry._mean_log`` folds the blocks into the Fréchet-mean summary, so
beyond the n·k eigenvalues the memory of a draw does not grow with n.  E
is a QR factor without the sign fix that makes it exactly Haar (signing
its columns by the diagonal of R, Mezzadri 2007): the fix flips columns of
E by ±1, which cancels exactly in E diag(l) E^T.

E stays LAPACK's batched ``np.linalg.qr`` (22–30 µs a 30 x 30 matrix, one
pinned core).  At k = 30, n = 500 in blocks of 18, QR plus the rebuild took
21.7–22.3 ms (medians of 31 calls); in numpy, Stewart's Householder product
took 58 ms, compact-WY by the ``dlarft`` recurrence 22.5 ms, a tree-built T
24.9 ms against QR's 21.6 ms at 72-matrix blocks, and one GEMM for the
rebuild and the sum 20.8 ms against 20.6 ms.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import DimensionError, DomainError, _checked_int
from .geometry import _FOLD_DOUBLES, LOG_FLOAT64_MAX, MAX_DIM, SpdMatrix, _rebuild

# Seeds are unsigned 64-bit integers.
_MAX_SEED = 2**64 - 1


class RngState:
    """Deterministic SFC64 random stream with reproducible substreams.

    Identical ``(seed, stream)`` plus an identical call sequence yields
    bit-identical outputs.  The 64-bit counter in SFC64's 256-bit state
    gives every stream a period of at least 2^64 draws.  A state is
    single-owner: fork substreams for concurrent work instead of sharing one
    state across threads.  Stream path elements are nonnegative integers of
    any size.
    """

    __slots__ = ("seed", "stream", "generator")

    def __init__(self, seed: int, stream: tuple[int, ...] = ()):
        self.seed = _checked_int(seed, "seed", 0, _MAX_SEED)
        self.stream = tuple(_checked_int(s, "stream path element", 0) for s in stream)
        sequence = np.random.SeedSequence(entropy=self.seed, spawn_key=self.stream)
        self.generator = np.random.Generator(np.random.SFC64(sequence))

    def substream(self, *path: int) -> "RngState":
        """Fork an independent stream keyed by ``path`` under the same seed."""
        return RngState(self.seed, self.stream + path)

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed}, stream={self.stream})"


def _check_radius(r: float) -> None:
    """:class:`DomainError` unless r gives a finite range [e^-r, e^r]."""
    if not 0 < r <= LOG_FLOAT64_MAX:
        raise DomainError(f"r must be in (0, {LOG_FLOAT64_MAX:.6g}] so e^r is finite, got {r}")


def _synthetic_blocks(
    rng: RngState, k: int, r: float, n: int, logs: bool = True
) -> Iterator[np.ndarray]:
    """The n draws E diag(w) E^T, w = ln l (or l itself when ``logs`` is
    false), as consecutive (m, k, k) blocks.

    All n·k uniforms are drawn first, then the normals of each block, so
    the stream is that of one (n, k, k) draw.  Each block is a fresh array,
    which a caller may keep or change in place.
    """
    k = _checked_int(k, "k", 1, MAX_DIM, DimensionError)
    _check_radius(r)
    n = _checked_int(n, "n")
    eigs = rng.generator.uniform(np.exp(-r), np.exp(r), size=(n, k))
    if logs:
        np.log(eigs, out=eigs)
    m = min(n, max(1, _FOLD_DOUBLES // (k * k)))
    for start in range(0, n, m):
        basis = np.linalg.qr(rng.generator.standard_normal((min(m, n - start), k, k)))[0]
        yield _rebuild(basis, eigs[start : start + m])


def sample_synthetic_spd(rng: RngState, k: int, r: float) -> SpdMatrix:
    """Draw a random SPD matrix E diag(l) E^T with eigenvalues uniform in
    [e^-r, e^r] and E Haar orthogonal: the n = 1 case of the draw that
    :func:`_synthetic_blocks` streams, rebuilt from l instead of ln l.

    Every draw lies in the log-Euclidean ball of radius sqrt(k) * r around
    the identity, since ||log X||_F^2 = sum (ln l_i)^2 <= k r^2.
    """
    return SpdMatrix(next(_synthetic_blocks(rng, k, r, 1, logs=False))[0])
