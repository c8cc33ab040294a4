"""Deterministic, seedable randomness and synthetic SPD data.

All randomness in the package flows through :class:`RngState`, a thin wrapper
over numpy's SFC64 generator, chosen over Philox because it draws the
453,600 normals of a k = 30, n = 500 dataset in 6.3–6.9 ms against
10.0–10.1 ms on one core of a 2-vCPU VM; neither is cryptographic, so the
choice leaves the threat model as it was.  Substreams forked with :meth:`RngState.substream` are
seeded by distinct ``SeedSequence`` spawn keys, statistically independent
and reproducible, so parallel work keyed by a path such as (cell, trial)
replays bit-exactly regardless of scheduling.

Synthetic data E diag(l) E^T (l uniform in [e^-r, e^r], E Haar) is drawn
as n·k uniforms, then n·k² normals (n = 1 for one SPD matrix).  The normals
are streamed: they fill one reused buffer of at most :data:`_BLOCK_DOUBLES`
doubles (one matrix when k² is larger, all n draws at k = 1) block by
block, in the order of a single (n, k, k) draw, so the stream is that of
one draw, and each block is rebuilt in place.  This module only draws:
``geometry._mean_log`` folds the blocks into the Fréchet-mean summary, so
beyond the n·k eigenvalues the memory of a draw does not grow with n.  E
is a QR factor without the sign fix that makes it exactly Haar (signing
its columns by the diagonal of R, Mezzadri 2007): the fix flips columns of
E by ±1, which cancels exactly in E diag(l) E^T.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import DimensionError, DomainError, _checked_int
from .geometry import MAX_DIM, SpdMatrix, _rebuild

# Seeds are unsigned 64-bit integers.
_MAX_SEED = 2**64 - 1

# Largest r whose e^r is finite: the synthetic eigenvalue range [e^-r, e^r].
_MAX_SYNTHETIC_R = float(np.log(np.finfo(float).max))

# Normals per block of a streamed synthetic draw: a block is
# max(1, _BLOCK_DOUBLES // k²) matrices, whatever n (see _synthetic_blocks).
_BLOCK_DOUBLES = 2**14


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
    if not 0 < r <= _MAX_SYNTHETIC_R:
        raise DomainError(f"r must be in (0, {_MAX_SYNTHETIC_R:.6g}] so e^r is finite, got {r}")


def _synthetic_blocks(
    rng: RngState, k: int, r: float, n: int, logs: bool = True
) -> Iterator[np.ndarray]:
    """The n draws E diag(w) E^T, w = ln l (or l itself when ``logs`` is
    false), as consecutive (m, k, k) blocks.

    All n·k uniforms are drawn first, then the normals of each block into
    one reused buffer, so the stream is that of one (n, k, k) draw.  Each
    block is a view of that buffer and is overwritten by the next one; a
    caller may change it in place.  At k = 1 one block holds all n draws,
    so ``geometry._mean_log`` of the blocks stays bit-identical to the
    stack's mean, and n doubles are no more than the eigenvalues held.
    """
    k = _checked_int(k, "k", 1, MAX_DIM, DimensionError)
    _check_radius(r)
    n = _checked_int(n, "n")
    eigs = rng.generator.uniform(np.exp(-r), np.exp(r), size=(n, k))
    if logs:
        np.log(eigs, out=eigs)
    m = n if k == 1 else min(n, max(1, _BLOCK_DOUBLES // (k * k)))
    normals, product = np.empty((m, k, k)), np.empty((m, k, k))
    for start in range(0, n, m):
        rows = min(m, n - start)
        gauss = rng.generator.standard_normal(out=normals[:rows])
        basis = np.linalg.qr(gauss)[0]
        yield _rebuild(basis, eigs[start : start + rows], scaled=gauss, out=product[:rows])


def sample_synthetic_spd(rng: RngState, k: int, r: float) -> SpdMatrix:
    """Draw a random SPD matrix E diag(l) E^T with eigenvalues uniform in
    [e^-r, e^r] and E Haar orthogonal: the n = 1 case of the draw that
    :func:`_synthetic_blocks` streams, rebuilt from l instead of ln l.

    Every draw lies in the log-Euclidean ball of radius sqrt(k) * r around
    the identity, since ||log X||_F^2 = sum (ln l_i)^2 <= k r^2.
    """
    return SpdMatrix(next(_synthetic_blocks(rng, k, r, 1, logs=False))[0])
