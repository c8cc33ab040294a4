"""Image covariance descriptors with a provable geodesic-radius bound.

Each pixel of an image is mapped to a nonnegative feature vector (grid
position, intensities, absolute first and second derivatives, gradient
magnitude and orientation); the descriptor is the empirical covariance of
those vectors plus eta times the identity, which is always SPD (Tuzel,
Porikli & Meer, ECCV 2006).  Because every feature component is bounded,
the descriptor's spectrum is sandwiched between eta and 12 + eta
(grayscale) or 14 + eta (RGB), which bounds its log-Euclidean distance to
the identity by sqrt(k) * max(|ln eta|, |ln(12 or 14 + eta)|).  That radius
is what feeds the Fréchet-mean sensitivity for image experiments.

The pipeline is batched and runs in place.  A :class:`_BlockBuffers` owns
every block-sized array for up to ``capacity`` images of one size (h, w,
c): the [0, 1] intensities, the luminance, the edge-padded block, the
derivative scratch and its seven scaled copies, the feature layers and
the covariances.  Each block writes every intermediate
into them with ``out=``, so a run of same-size images allocates its
buffers once however many blocks it spans, and the C allocator does not
map and unmap a megabyte of temporaries per block.  The covariance centers
the computed feature rows in place, in the layers themselves, rather than
into a second megabyte that would not fit in cache beside them.  The x/y
grid rows are the same for every image, so they are written, checked and
centered once, when the buffers are built; the centered copy stands in for
the raw rows only while the covariance product runs.  That product L L^T of
the k feature rows runs as two ``gemm`` products, of the first k // 2 rows
and of the rest with all k, into the two halves of the covariance buffer:
numpy's matmul sends ``A @ A.T`` on one buffer to BLAS ``syrk``, about
twice as slow as ``gemm`` at these shapes (9 x 784 gray, 11 x 1600 RGB),
and a row half times the transposed block is not one buffer times its own
transpose, so it takes ``gemm`` with no copy.  Averaging with the transpose
keeps each descriptor exactly symmetric.
:meth:`_BlockBuffers.descriptors` maps a stack (m, h, w, c) of same-size
images to their (m, k, k) descriptors in one call, written into the
caller's block when it passes one, and :func:`covariance_descriptor` runs
it on buffers for a stack of one.

The derivative kernels act on the flattened padded block.  It is scaled
once by each of the seven distinct tap magnitudes (1/32, 1/16, 1/8, 3/16,
1/4, 3/8 and 1/2); tap (w, a, b) is then one contiguous add or subtract of
the |w| copy at the fixed offset (off + a) * W + off + b, with W the
padded width, which lines the tap up with every output pixel of the block
at once (positions that fall in the padding are computed and ignored).
Each term is still fl(|w| * x) with an exact sign, and the terms are summed
in row-major order of the flipped kernel, the order in which
``scipy.ndimage.convolve(..., mode="nearest")`` sums them, so the responses
equal it bit for bit, subnormal inputs included.  (Factoring a power of two
out of the weights would not be exact: scaling a subnormal rounds.)  This
matters because the orientation feature is discontinuous where the
gradient vanishes, and rounding noise there would flip it.

:func:`_class_logs` is the one image path from file to log block.  It
feeds a class through one set of buffers per run of same-size images, in
feature blocks of at most :data:`BLOCK_DOUBLES` feature values, and divides
each parsed file by its own maxval straight into the buffers' intensities:
the division :func:`load_pnm` makes, so the descriptors are bit for bit
those of one image at a time.  Each feature block's descriptors land in
their slice of one reused log block, a whole number of feature blocks that
holds a fold block (``geometry._FOLD_DOUBLES`` doubles) of matrices, and
one batched ``logm_stack`` maps each full log block.  The harness folds the
log blocks into the class's mean with ``geometry._mean_log``, as it folds
a synthetic dataset, so memory does not grow with the class size.

Ingestion reads binary PGM (P5, grayscale) and PPM (P6, RGB) files with
8-bit samples; intensities are divided by the header's maxval so
everything lives in [0, 1].
"""

from __future__ import annotations

import itertools
import logging
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, DomainError, _timed
from .geometry import _FOLD_DOUBLES, SpdMatrix, logm_stack

log = logging.getLogger(__name__)

# First derivatives: 3x3 kernels normalised by 1/4 so the response of a
# [0, 1] image stays in [-1, 1] (positive and negative taps each sum to 1).
KERNEL_DX = np.array(
    [[1.0, 0.0, -1.0], [2.0, 0.0, -2.0], [1.0, 0.0, -1.0]]
) / 4.0
KERNEL_DY = np.array(
    [[1.0, 2.0, 1.0], [0.0, 0.0, 0.0], [-1.0, -2.0, -1.0]]
) / 4.0

# Second derivatives: 5x5 kernels normalised by 1/32, same bound.
KERNEL_DXX = np.array(
    [
        [1.0, 0.0, -2.0, 0.0, 1.0],
        [4.0, 0.0, -8.0, 0.0, 4.0],
        [6.0, 0.0, -12.0, 0.0, 6.0],
        [4.0, 0.0, -8.0, 0.0, 4.0],
        [1.0, 0.0, -2.0, 0.0, 1.0],
    ]
) / 32.0
KERNEL_DYY = KERNEL_DXX.T.copy()

# Rec. 601 luminance weights used to reduce RGB to one derivative channel.
_LUMA = np.array([0.299, 0.587, 0.114])

_FEATURE_CAP = {1: 12.0, 3: 14.0}  # max ||feature||^2 per channel count

# Feature values one block of images may hold (8 bytes each, about 1 MB).
BLOCK_DOUBLES = 2**17

_PAD = 2  # radius of the widest kernel


def _flipped_taps(kernel: np.ndarray) -> tuple[tuple[float, int, int], ...]:
    """Each nonzero weight of the flipped square kernel with its row and
    column in a block edge-padded by _PAD, in row-major order (the order in
    which ``scipy.ndimage.convolve`` accumulates them)."""
    flipped = kernel[::-1, ::-1]
    off = _PAD - kernel.shape[0] // 2
    rows, cols = np.nonzero(flipped)
    return tuple((float(flipped[a, b]), off + int(a), off + int(b)) for a, b in zip(rows, cols))


_DERIVATIVE_TAPS = tuple(
    _flipped_taps(k) for k in (KERNEL_DX, KERNEL_DY, KERNEL_DXX, KERNEL_DYY)
)

# The distinct tap magnitudes: 1/32, 1/16, 1/8, 3/16, 1/4, 3/8 and 1/2.
_TAP_SCALES = tuple(sorted({abs(wt) for taps in _DERIVATIVE_TAPS for wt, _, _ in taps}))


def _check_features(layers: np.ndarray, caps: np.ndarray) -> None:
    """Every component of a stack (n, f, m) of feature layers is nonnegative
    and at most its row's entry of ``caps`` (NaN fails both)."""
    if not layers.min() >= -1e-12:
        raise DomainError("feature components must be nonnegative")
    if not np.all(layers.max(axis=(0, 2)) <= caps):
        raise DomainError("feature components exceed their analytic bounds")


@dataclass(frozen=True, eq=False)
class RasterImage:
    """An h x w image with 1 or 3 channels and intensities in [0, 1]."""

    intensities: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.intensities, dtype=float)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise DimensionError(
                f"intensities must be h x w or h x w x c, got shape {arr.shape}"
            )
        h, w, c = arr.shape
        if h < 1 or w < 1:
            raise DomainError("image must contain at least one pixel")
        if c not in (1, 3):
            raise DomainError(f"channel count must be 1 or 3, got {c}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("intensities must be finite")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise DomainError("intensities must lie in [0, 1]")
        arr.flags.writeable = False
        object.__setattr__(self, "intensities", arr)

    @property
    def height(self) -> int:
        return self.intensities.shape[0]

    @property
    def width(self) -> int:
        return self.intensities.shape[1]

    @property
    def channels(self) -> int:
        return self.intensities.shape[2]


@dataclass(frozen=True)
class DescriptorParams:
    """Regularisation strength added to the covariance diagonal."""

    eta: float = 1e-6

    def __post_init__(self) -> None:
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise DomainError(f"eta must be a positive real, got {self.eta}")


class _BlockBuffers:
    """Every block-sized array of the descriptor pipeline for up to
    ``capacity`` images of size (h, w, c), allocated once; each block writes
    its intermediates into them in place.  Views of the buffers that a
    method returns are overwritten by the next block."""

    def __init__(self, capacity: int, h: int, w: int, c: int) -> None:
        self.shape = (h, w, c)
        k = 8 + c
        self.intensities = np.empty((capacity, h, w, c))  # filled by _class_logs
        self._lum = np.empty((capacity, h, w))  # RGB only
        self._padded = np.empty((capacity, h + 2 * _PAD, w + 2 * _PAD))
        self._scratch = np.empty(self._padded.size)
        self._scaled = np.empty((len(_TAP_SCALES), self._padded.size))
        self._layers = np.empty((capacity, k, h, w))
        self._layers[:, 0] = np.zeros(w) if w == 1 else np.arange(w) / (w - 1)
        self._layers[:, 1] = (np.zeros(h) if h == 1 else np.arange(h) / (h - 1))[:, None]
        # each row's analytic cap, with a 1e-9 tolerance: 1, but sqrt(2) for
        # the gradient magnitude and pi/2 for its orientation; the grid rows
        # are checked here, the computed rows once per block
        caps = np.concatenate([np.ones(6 + c), [math.sqrt(2.0), math.pi / 2.0]]) + 1e-9
        self._grid = self._layers[0, :2].reshape(2, h * w).copy()
        _check_features(self._grid[None], caps[:2])
        self._caps = caps[2:]
        self._centered_grid = self._grid - self._grid.mean(axis=1, keepdims=True)
        self._cov = np.empty((capacity, k, k))
        # per kernel: (index into _TAP_SCALES, sign, flat offset) of each tap
        padded_w = w + 2 * _PAD
        self._taps = tuple(
            tuple((_TAP_SCALES.index(abs(wt)), math.copysign(1.0, wt), a * padded_w + b)
                  for wt, a, b in taps)
            for taps in _DERIVATIVE_TAPS
        )

    def descriptors(
        self, intensities: np.ndarray, params: DescriptorParams, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Covariance descriptors (m, k, k) of a stack (m, h, w, c) of images
        with intensities in [0, 1], m <= capacity: the empirical covariance
        of each image's features plus eta * identity, written into ``out``
        when it is given.  Symmetric by construction."""
        layers = self.features(intensities)
        m, k, pixels = layers.shape
        computed = layers[:, 2:]
        computed -= computed.mean(axis=2, keepdims=True)
        layers[:, :2] = self._centered_grid
        # two row halves take gemm, not the slower syrk (module docstring)
        cov = self._cov[:m]
        half = k // 2
        np.matmul(layers[:, :half], layers.transpose(0, 2, 1), out=cov[:, :half])
        np.matmul(layers[:, half:], layers.transpose(0, 2, 1), out=cov[:, half:])
        layers[:, :2] = self._grid  # features() returns the raw grid
        cov /= pixels
        out = np.add(cov, cov.transpose(0, 2, 1), out=out)
        out *= 0.5
        out += params.eta * np.eye(k)
        return out

    def features(self, intensities: np.ndarray) -> np.ndarray:
        """Validated feature layers (m, 8 + c, h * w) of a stack (m, h, w, c)
        of images, one contiguous row per feature, pixels in row-major order.

        The rows are [x, y, intensities, |Ix|, |Iy|, |Ixx|, |Iyy|, gradient
        magnitude, gradient orientation].  Grid coordinates are normalised to
        [0, 1] (0 along a side of one pixel).  Derivatives are taken on the
        single channel for grayscale and on the Rec. 601 luminance for RGB,
        with replicate-edge padding, so the kernel normalisations keep every
        derivative in [-1, 1].  Orientation is arctan(|Ix| / |Iy|), defined
        as pi/2 when only |Iy| vanishes and 0 when both derivatives vanish.
        """
        m = len(intensities)
        h, w, c = self.shape
        feats = self._layers[:m]
        feats[:, 2 : 2 + c] = intensities.transpose(0, 3, 1, 2)
        lum = intensities[..., 0] if c == 1 else np.matmul(intensities, _LUMA, out=self._lum[:m])
        for layer, response in enumerate(self._derivatives(lum), start=2 + c):
            np.abs(response, out=feats[:, layer])
        d_x, d_y, mag = feats[:, 2 + c], feats[:, 3 + c], feats[:, 6 + c]
        np.square(d_x, out=mag)
        mag += np.square(d_y, out=self._scratch[: m * h * w].reshape(m, h, w))
        np.sqrt(mag, out=mag)
        np.arctan2(d_x, d_y, out=feats[:, 7 + c])
        layers = feats.reshape(m, 8 + c, h * w)
        _check_features(layers[:, 2:], self._caps)
        return layers

    def _derivatives(self, lum: np.ndarray):
        """Responses (m, h, w) of a luminance stack (m, h, w) to KERNEL_DX,
        KERNEL_DY, KERNEL_DXX and KERNEL_DYY with replicate-edge padding, in
        that order; each is a view of the scratch buffer, valid until the
        next is yielded.

        The stack is edge-padded into one block, flattened, and scaled once
        by each tap magnitude.  Pixel (i, j) of image n of the response sits
        at flat index n * H * W + i * W + j of the (m, H, W) padded layout,
        and tap (w, a, b) reads the |w| copy at that index plus the fixed
        offset a * W + b, so each tap is one contiguous add or subtract over
        the whole block.  Each term is fl(|w| * x) with an exact sign, taken
        in row-major order of the flipped kernel: the same products, signs
        and order of additions as ``scipy.ndimage.convolve(...,
        mode="nearest")``, so every response equals it bit for bit, subnormal
        inputs included.
        """
        m, h, w = lum.shape
        padded = self._padded[:m]
        padded[:, _PAD:-_PAD, _PAD:-_PAD] = lum
        padded[:, :_PAD, _PAD:-_PAD] = lum[:, :1]
        padded[:, -_PAD:, _PAD:-_PAD] = lum[:, -1:]
        padded[:, :, :_PAD] = padded[:, :, _PAD : _PAD + 1]
        padded[:, :, -_PAD:] = padded[:, :, -_PAD - 1 : -_PAD]
        flat = padded.reshape(-1)
        for scaled, scale in zip(self._scaled, _TAP_SCALES):
            np.multiply(flat, scale, out=scaled[: flat.size])
        # the largest offset, 2 * _PAD rows and columns, must still read inside
        # the block; the last pixel, 2 * _PAD rows and 2 * _PAD + 1 columns
        # before its end, is then the last output
        length = flat.size - 2 * _PAD * (padded.shape[2] + 1)
        acc = self._scratch[:length]
        for taps in self._taps:
            (first, sign, offset), *rest = taps
            np.multiply(self._scaled[first, offset : offset + length], sign, out=acc)
            for scale, sign, offset in rest:
                term = self._scaled[scale, offset : offset + length]
                if sign > 0:
                    acc += term
                else:
                    acc -= term
            yield self._scratch[: flat.size].reshape(padded.shape)[:, :h, :w]


def _class_logs(
    name: str, files: list[str], params: DescriptorParams, stages: dict
) -> Iterator[np.ndarray]:
    """Log-matrices of the descriptors of a class's parseable images, in
    file order, as consecutive (m, k, k) blocks; unparseable files are
    skipped with a warning.

    Each run of same-size images gets one :class:`_BlockBuffers` of at most
    :data:`BLOCK_DOUBLES` feature values (at least one image) and one log
    block of the fewest whole feature blocks that hold
    ``geometry._FOLD_DOUBLES // k²`` matrices.  Each file is divided by its
    maxval straight into the buffers' intensities, the division
    :func:`load_pnm` makes; each feature block's descriptors land in their
    slice of the log block, which ``logm_stack`` maps in one batched call
    when it is full or the run ends.  Memory does not grow with the class:
    the caller folds each log block before the next is made.  ``stages``
    gets the bytes read and the ``descriptors`` and ``logm`` times.
    """

    def parsed():
        channels = None
        for path in files:
            try:
                with open(path, "rb", buffering=0) as f:
                    data = f.read()
                stages["bytes"] += len(data)
                pixels, maxval = _parse_pnm(data)
            except DomainError as exc:
                log.warning("skipping %s: %s", path, exc)
                continue
            if channels not in (None, pixels.shape[2]):
                raise DomainError(
                    f"class {name!r} mixes gray and RGB images; descriptors "
                    "would have different dimensions"
                )
            channels = pixels.shape[2]
            yield pixels, maxval

    buffers = None
    for (h, w, c), run in itertools.groupby(parsed(), key=lambda s: s[0].shape):
        k = 8 + c
        per_block = max(1, BLOCK_DOUBLES // (h * w * k))
        buffers, filled = _BlockBuffers(per_block, h, w, c), 0
        log_block = np.empty((-(-(_FOLD_DOUBLES // (k * k)) // per_block) * per_block, k, k))
        while chunk := list(itertools.islice(run, per_block)):
            for image, (pixels, maxval) in zip(buffers.intensities, chunk):
                np.divide(pixels, float(maxval), out=image)
            m = len(chunk)
            _timed(stages, "descriptors", buffers.descriptors, buffers.intensities[:m], params,
                   log_block[filled : filled + m])
            filled += m
            if filled == len(log_block):
                yield _timed(stages, "logm", logm_stack, log_block)
                filled = 0
        if filled:
            yield _timed(stages, "logm", logm_stack, log_block[:filled])
    if buffers is None:
        raise DomainError(f"class {name!r} contains no parseable images")


def covariance_descriptor(
    image: RasterImage, params: DescriptorParams = DescriptorParams()
) -> SpdMatrix:
    """Empirical covariance of the feature field plus eta * identity."""
    stack = image.intensities[None]
    return SpdMatrix(_BlockBuffers(*stack.shape).descriptors(stack, params)[0])


def descriptor_radius_bound(channels: int, eta: float) -> float:
    """Radius of the log-Euclidean ball around the identity guaranteed to
    contain every descriptor: sqrt(k) * max(|ln eta|, |ln(cap + eta)|) with
    cap = 12 (grayscale, k = 9) or 14 (RGB, k = 11)."""
    if channels not in _FEATURE_CAP:
        raise DomainError(f"channels must be 1 or 3, got {channels}")
    if not (eta > 0):
        raise DomainError("eta must be positive")
    k = 8 + channels
    cap = _FEATURE_CAP[channels]
    return math.sqrt(k) * max(abs(math.log(eta)), abs(math.log(cap + eta)))


# The four PNM header tokens (magic, width, height, maxval), each after any
# run of whitespace bytes and '#' comments (to the end of the line).  Every
# part may be empty, so the match always succeeds at its first, greedy try
# and a token is the whole non-whitespace run, as a byte-wise scan reads it;
# an empty token means the header is truncated.
_PNM_HEADER = re.compile(rb"(?:(?:\s|#[^\n\r]*)*(\S*))" * 4)


def load_pnm(path: str | Path) -> RasterImage:
    """Read a binary PGM (P5) or PPM (P6) file with 8-bit samples."""
    return _decode_pnm(Path(path).read_bytes())


def _decode_pnm(data: bytes) -> RasterImage:
    """Decode binary PGM/PPM bytes; samples scale by the header's maxval,
    and any other content raises :class:`DomainError`."""
    pixels, maxval = _parse_pnm(data)
    return RasterImage(intensities=pixels.astype(float) / float(maxval))


def _parse_pnm(data: bytes) -> tuple[np.ndarray, int]:
    """8-bit samples (h, w, c), a read-only view of ``data``, and the maxval
    of binary PGM/PPM bytes; any other content raises :class:`DomainError`."""
    header = _PNM_HEADER.match(data)
    magic, *tokens = header.groups()
    if not magic:
        raise DomainError("truncated PNM header")
    if magic not in (b"P5", b"P6"):
        raise DomainError(f"unsupported PNM magic {magic!r}; only binary P5/P6")
    fields = []
    for token in tokens:
        if not token:
            raise DomainError("truncated PNM header")
        # the spec allows ASCII decimal digits only (no sign, no underscores)
        if not token.isdigit() or len(token) > 9:
            raise DomainError(f"invalid PNM header token {token[:20]!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise DomainError(f"invalid PNM dimensions {width}x{height}")
    if not (0 < maxval <= 255):
        raise DomainError(f"only 8-bit PNM supported, got maxval {maxval}")
    channels = 1 if magic == b"P5" else 3
    pos = header.end() + 1  # single whitespace byte after maxval
    expected = width * height * channels
    available = max(len(data) - pos, 0)
    if available < expected:
        raise DomainError(
            f"truncated PNM payload: expected {expected} bytes, got {available}"
        )
    pixels = np.frombuffer(data, dtype=np.uint8, count=expected, offset=pos)
    pixels = pixels.reshape(height, width, channels)
    # a uint8 sample cannot exceed maxval 255
    if maxval < 255 and int(pixels.max()) > maxval:
        raise DomainError(f"PNM sample {int(pixels.max())} exceeds maxval {maxval}")
    return pixels, maxval


def save_pnm(image: RasterImage, path: str | Path) -> None:
    """Write a binary PGM/PPM file with 8-bit samples."""
    magic = b"P5" if image.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, image.width, image.height)
    payload = np.rint(image.intensities * 255.0).astype(np.uint8).tobytes()
    Path(path).write_bytes(header + payload)
