"""Log-Euclidean geometry of symmetric positive definite matrices.

Under the log-Euclidean metric the manifold SPD(k) is a flat space: the
matrix logarithm maps it diffeomorphically onto the vector space SYM(k) of
symmetric matrices, and ``vecd`` maps SYM(k) isometrically onto
R^{k(k+1)/2}.  Addition, subtraction and scaling of SPD matrices
(``le_add``, ``le_sub``, ``le_scale``) are ordinary vector operations
conjugated by matrix log/exp, the distance is the Frobenius norm of the
difference of logs, and the Fréchet mean has the closed form
exp(mean(log X_i)), which :func:`_mean_log` folds block by block for
every dataset.

Typed wrappers (:class:`SpdMatrix`, :class:`SymMatrix`,
:class:`TangentVector`) validate their invariants at construction.  The
``*_stack`` functions are the vectorised array core; they operate on
arrays with arbitrary leading batch dimensions and are what Monte-Carlo
diagnostics and the benchmark harness use for bulk work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, DomainError, NumericalError, _checked_int

# Admission cap on the matrix dimension k.  Dense eigendecompositions are
# the workhorse here; anything larger deserves a different tool.
MAX_DIM = 256

# Inputs are symmetrised as (A + A^T)/2 when the worst asymmetry is below
# this, and rejected otherwise (image-derived covariances accumulate
# rounding asymmetry but anything larger signals a caller bug).
SYMMETRY_ATOL = 1e-9

# Positive-definiteness admission: lambda_min > PD_RTOL * max(1, lambda_max).
PD_RTOL = 1e-12

# exp of a larger log-eigenvalue overflows float64; fail with a clear
# message instead of emitting infinities downstream.
EXP_ARG_MAX = 700.0

_SQRT2 = float(np.sqrt(2.0))


def _checked_square(entries: object, what: str) -> np.ndarray:
    arr = np.array(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{what} requires a square matrix, got shape {arr.shape}")
    k = arr.shape[0]
    if k < 1:
        raise DimensionError(f"{what} requires dimension >= 1")
    if k > MAX_DIM:
        raise DimensionError(f"{what} dimension {k} exceeds the cap MAX_DIM={MAX_DIM}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} entries must be finite")
    return arr


def _symmetrized(arr: np.ndarray, what: str) -> np.ndarray:
    gap = float(np.max(np.abs(arr - arr.T)))
    if gap > SYMMETRY_ATOL:
        raise DomainError(
            f"{what} is not symmetric: max |A - A^T| = {gap:.3e} exceeds {SYMMETRY_ATOL:.0e}"
        )
    out = 0.5 * arr + 0.5 * arr.T  # halve first: arr + arr.T overflows near float64's max
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """A k x k real symmetric matrix, the tangent-space element type.

    Entries are symmetrised exactly at construction; inputs whose asymmetry
    exceeds :data:`SYMMETRY_ATOL` are rejected.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = _checked_square(self.entries, type(self).__name__)
        object.__setattr__(self, "entries", _symmetrized(arr, type(self).__name__))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class SpdMatrix(SymMatrix):
    """A symmetric matrix with all eigenvalues strictly positive.

    Positivity is checked at construction: the smallest eigenvalue must
    exceed ``PD_RTOL * max(1, largest eigenvalue)``.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        w = _eigvalsh(self.entries)
        if not w[0] > PD_RTOL * max(1.0, float(w[-1])):  # NaN fails
            raise DomainError(
                f"matrix is not positive definite: min eigenvalue {w[0]:.6e} "
                f"(max {w[-1]:.6e})"
            )


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Vectorised tangent coordinates: a length k(k+1)/2 real vector."""

    dim_ambient: int
    coords: np.ndarray

    def __post_init__(self) -> None:
        k = _checked_int(self.dim_ambient, "ambient dimension", 1, MAX_DIM, DimensionError)
        arr = np.array(self.coords, dtype=float)
        if arr.ndim != 1:
            raise DimensionError(f"coords must be a vector, got shape {arr.shape}")
        expected = k * (k + 1) // 2
        if arr.shape[0] != expected:
            raise DimensionError(
                f"coords length {arr.shape[0]} != k(k+1)/2 = {expected} for k={k}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("coords must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "dim_ambient", k)
        object.__setattr__(self, "coords", arr)


def _eigh(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(mats)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"symmetric eigendecomposition failed on shape {np.shape(mats)}: {exc}"
        ) from exc


def _eigvalsh(mats: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(mats)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"symmetric eigenvalue computation failed on shape {np.shape(mats)}: {exc}"
        ) from exc


def _rebuild(
    basis: np.ndarray,
    eigs: np.ndarray,
    scaled: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Symmetric U diag(w) U^T for stacks of bases and eigenvalue vectors.

    ``scaled`` and ``out`` are optional buffers of the bases' shape, not
    overlapping ``basis``, for U diag(w) and the product; the result
    overwrites U diag(w)."""
    scaled = np.multiply(basis, eigs[..., None, :], out=scaled)
    product = np.matmul(scaled, np.swapaxes(basis, -1, -2), out=out)
    symmetric = np.add(product, np.swapaxes(product, -1, -2), out=scaled)
    return np.multiply(0.5, symmetric, out=symmetric)


def logm_stack(mats: np.ndarray) -> np.ndarray:
    """Matrix logarithm of a stack (..., k, k) of SPD matrices."""
    mats = np.asarray(mats, dtype=float)
    w, u = _eigh(mats)
    wmax = np.maximum(1.0, w[..., -1])
    if not np.all(w[..., 0] > PD_RTOL * wmax):  # NaN fails
        bad = float(np.min(w[..., 0]))
        raise DomainError(f"matrix is not positive definite: min eigenvalue {bad:.6e}")
    return _rebuild(u, np.log(w))


def expm_stack(mats: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack (..., k, k) of symmetric matrices."""
    mats = np.asarray(mats, dtype=float)
    w, u = _eigh(mats)
    top = float(np.max(w))
    if top > EXP_ARG_MAX:
        raise NumericalError(
            f"matrix exponential overflows float64: log-eigenvalue {top:.4g} "
            f"exceeds {EXP_ARG_MAX:g} (noise scale too large for this range)"
        )
    return _rebuild(u, np.exp(w))


def vecd_stack(mats: np.ndarray) -> np.ndarray:
    """Isometric vectorisation of symmetric matrices: diagonal, then sqrt(2)
    times the strict upper triangle in row-major order."""
    mats = np.asarray(mats, dtype=float)
    k = mats.shape[-1]
    idx = np.arange(k)
    iu = np.triu_indices(k, 1)
    diag = mats[..., idx, idx]
    upper = mats[..., iu[0], iu[1]]
    return np.concatenate([diag, _SQRT2 * upper], axis=-1)


def invvecd_stack(vecs: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vecd_stack` for ambient dimension ``dim``."""
    vecs = np.asarray(vecs, dtype=float)
    k = _checked_int(dim, "dimension", error=DimensionError)
    expected = k * (k + 1) // 2
    if vecs.shape[-1] != expected:
        raise DimensionError(
            f"vector length {vecs.shape[-1]} != k(k+1)/2 = {expected} for k={k}"
        )
    out = np.zeros(vecs.shape[:-1] + (k, k))
    idx = np.arange(k)
    iu = np.triu_indices(k, 1)
    out[..., idx, idx] = vecs[..., :k]
    off = vecs[..., k:] / _SQRT2
    out[..., iu[0], iu[1]] = off
    out[..., iu[1], iu[0]] = off
    return out


def logm(x: SpdMatrix) -> SymMatrix:
    """Matrix logarithm U diag(ln lambda_i) U^T."""
    return SymMatrix(logm_stack(x.entries))


def expm(s: SymMatrix) -> SpdMatrix:
    """Matrix exponential U diag(exp lambda_i) U^T; always lands in SPD(k)."""
    return SpdMatrix(expm_stack(s.entries))


def vecd(s: SymMatrix) -> TangentVector:
    """Map a symmetric matrix to its length k(k+1)/2 coordinate vector.

    The map preserves norms: ||vecd(S)||_2 equals ||S||_F.
    """
    return TangentVector(dim_ambient=s.dim, coords=vecd_stack(s.entries))


def invvecd(v: TangentVector) -> SymMatrix:
    """Rebuild the symmetric matrix whose ``vecd`` image is ``v``."""
    return SymMatrix(invvecd_stack(v.coords, v.dim_ambient))


def _require_same_dim(a: SymMatrix, b: SymMatrix) -> None:
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")


def le_distance(x1: SpdMatrix, x2: SpdMatrix) -> float:
    """Log-Euclidean distance ||log X1 - log X2||_F."""
    _require_same_dim(x1, x2)
    diff = logm_stack(x1.entries) - logm_stack(x2.entries)
    return float(np.linalg.norm(diff))


def le_add(x1: SpdMatrix, x2: SpdMatrix) -> SpdMatrix:
    """Vector-space addition exp(log X1 + log X2)."""
    _require_same_dim(x1, x2)
    return SpdMatrix(expm_stack(logm_stack(x1.entries) + logm_stack(x2.entries)))


def le_sub(x1: SpdMatrix, x2: SpdMatrix) -> SpdMatrix:
    """Vector-space subtraction exp(log X1 - log X2)."""
    _require_same_dim(x1, x2)
    return SpdMatrix(expm_stack(logm_stack(x1.entries) - logm_stack(x2.entries)))


def le_scale(a: float, x: SpdMatrix) -> SpdMatrix:
    """Vector-space scaling exp(a * log X)."""
    return SpdMatrix(expm_stack(float(a) * logm_stack(x.entries)))


def frechet_mean_le(dataset: Sequence[SpdMatrix]) -> SpdMatrix:
    """Closed-form Fréchet mean exp(mean(log X_i)) of a nonempty dataset.

    Minimises the sum of squared log-Euclidean distances to the data; the
    minimiser is unique.  A single-element dataset returns that element.
    """
    if len(dataset) == 0:
        raise DomainError("Fréchet mean of an empty dataset is undefined")
    k = dataset[0].dim
    for x in dataset:
        if x.dim != k:
            raise DimensionError(f"dimension mismatch in dataset: {x.dim} vs {k}")
    if len(dataset) == 1:
        return dataset[0]
    mean_log, _ = _mean_log([logm_stack(np.stack([x.entries for x in dataset]))])
    return SpdMatrix(expm_stack(mean_log))


# Doubles in one block of log-matrices that _mean_log folds: a synthetic
# draw or an image class is read in blocks of about _FOLD_DOUBLES // k²
# matrices, whatever its size.
_FOLD_DOUBLES = 2**14


def _mean_log(blocks: Iterable[np.ndarray]) -> tuple[np.ndarray, int]:
    """The mean of the log-matrices in ``blocks``, consecutive (m, k, k)
    stacks, and their count n.  Each block's first row (overwritten) takes
    the running total, then the block is summed over its rows, and the
    total is divided by n once: the row order of the whole stack's
    ``mean(axis=0)``, so the mean is that stack's bit for bit for k > 1 or
    one block (at k = 1 numpy sums pairwise), and the stack is never built.
    Nothing else is read from the data: every noise scale comes from a
    public radius bound (sqrt(k) r for a synthetic draw,
    ``descriptor_radius_bound`` for an image class)."""
    total, n = None, 0
    for block in blocks:
        if total is not None:
            block[0] += total
        total = np.add.reduce(block, axis=0)
        n += len(block)
    return total / n, n


def ball_radius(dataset: Sequence[SpdMatrix], center: SpdMatrix) -> float:
    """Largest log-Euclidean distance from ``center`` to any dataset element."""
    if len(dataset) == 0:
        raise DomainError("ball radius of an empty dataset is undefined")
    for x in dataset:
        _require_same_dim(x, center)
    logs = logm_stack(np.stack([x.entries for x in dataset]))
    return float(np.max(np.linalg.norm(logs - logm_stack(center.entries), axis=(1, 2))))


def identity(k: int) -> SpdMatrix:
    """The k x k identity, the zero element of the log-Euclidean vector space."""
    return SpdMatrix(np.eye(_checked_int(k, "dimension", 1, MAX_DIM, DimensionError)))
