"""Image covariance descriptors with a provable geodesic-radius bound.

Each pixel of an image is mapped to a nonnegative feature vector (grid
position, intensities, absolute first and second derivatives, gradient
magnitude and orientation); the descriptor is the empirical covariance of
those vectors plus eta times the identity, which is always SPD.  Because
every feature component is bounded, the descriptor's spectrum is sandwiched
between eta and 12 + eta (grayscale) or 14 + eta (RGB), which bounds its
log-Euclidean distance to the identity by
sqrt(k) * max(|ln eta|, |ln(12 or 14 + eta)|).  That radius is what feeds
the Fréchet-mean sensitivity for image experiments.

Ingestion reads binary PGM (P5, grayscale) and PPM (P6, RGB) files with
8-bit samples; intensities are divided by 255 so everything lives in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import DimensionError, DomainError
from .geometry import SpdMatrix

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

    @property
    def feature_dim(self) -> int:
        return 8 + self.channels


@dataclass(frozen=True, eq=False)
class FeatureField:
    """Per-pixel feature vectors; all components nonnegative and bounded."""

    values: np.ndarray  # (h, w, feat_dim)

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 3:
            raise DimensionError(f"values must be h x w x f, got shape {arr.shape}")
        if arr.shape[2] not in (9, 11):
            raise DimensionError(
                f"feature dimension must be 9 (gray) or 11 (RGB), got {arr.shape[2]}"
            )
        if arr.min() < -1e-12:
            raise DomainError("feature components must be nonnegative")
        c = arr.shape[2] - 8
        caps = np.concatenate(
            [np.ones(2 + c + 4), [math.sqrt(2.0), math.pi / 2.0]]
        )
        worst = arr.reshape(-1, arr.shape[2]).max(axis=0)
        if np.any(worst > caps + 1e-9):
            raise DomainError("feature components exceed their analytic bounds")
        object.__setattr__(self, "values", arr)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def feat_dim(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class DescriptorParams:
    """Regularisation strength added to the covariance diagonal."""

    eta: float = 1e-6

    def __post_init__(self) -> None:
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise DomainError(f"eta must be a positive real, got {self.eta}")


def _derivative_channel(image: RasterImage) -> np.ndarray:
    if image.channels == 1:
        return image.intensities[:, :, 0]
    return image.intensities @ _LUMA


def extract_features(image: RasterImage) -> FeatureField:
    """Per-pixel feature vectors [x, y, intensities, |Ix|, |Iy|, |Ixx|,
    |Iyy|, gradient magnitude, gradient orientation].

    Grid coordinates are normalised to [0, 1].  Derivatives are taken on the
    single channel for grayscale and on the Rec. 601 luminance for RGB, with
    replicate-edge padding, so the kernel normalisations keep every
    derivative in [-1, 1].  Orientation is arctan(|Ix| / |Iy|), defined as
    pi/2 when only |Iy| vanishes and 0 when both derivatives vanish.
    """
    h, w = image.height, image.width
    xs = np.zeros(w) if w == 1 else np.arange(w) / (w - 1)
    ys = np.zeros(h) if h == 1 else np.arange(h) / (h - 1)
    grid_x = np.broadcast_to(xs[None, :], (h, w))
    grid_y = np.broadcast_to(ys[:, None], (h, w))

    lum = _derivative_channel(image)
    d_x = np.abs(ndimage.convolve(lum, KERNEL_DX, mode="nearest"))
    d_y = np.abs(ndimage.convolve(lum, KERNEL_DY, mode="nearest"))
    d_xx = np.abs(ndimage.convolve(lum, KERNEL_DXX, mode="nearest"))
    d_yy = np.abs(ndimage.convolve(lum, KERNEL_DYY, mode="nearest"))
    magnitude = np.sqrt(d_x**2 + d_y**2)
    orientation = np.arctan2(d_x, d_y)

    layers = (
        [grid_x, grid_y]
        + [image.intensities[:, :, c] for c in range(image.channels)]
        + [d_x, d_y, d_xx, d_yy, magnitude, orientation]
    )
    return FeatureField(values=np.stack(layers, axis=-1))


def covariance_descriptor(
    image: RasterImage, params: DescriptorParams = DescriptorParams()
) -> SpdMatrix:
    """Empirical covariance of the feature field plus eta * identity."""
    field = extract_features(image)
    flat = field.values.reshape(-1, field.feat_dim)
    centered = flat - flat.mean(axis=0)
    cov = (centered.T @ centered) / flat.shape[0]
    cov = 0.5 * (cov + cov.T) + params.eta * np.eye(field.feat_dim)
    return SpdMatrix(cov)


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


def _read_pnm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n:
        if data[pos : pos + 1].isspace():
            pos += 1
        elif data[pos : pos + 1] == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise DomainError("truncated PNM header")
    return data[start:pos], pos


def load_pnm(path: str | Path) -> RasterImage:
    """Read a binary PGM (P5) or PPM (P6) file with 8-bit samples."""
    return _decode_pnm(Path(path).read_bytes())


def _decode_pnm(data: bytes) -> RasterImage:
    """Decode binary PGM/PPM bytes; samples scale by the header's maxval,
    and any other content raises :class:`DomainError`."""
    magic, pos = _read_pnm_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise DomainError(f"unsupported PNM magic {magic!r}; only binary P5/P6")
    fields = []
    for _ in range(3):
        token, pos = _read_pnm_token(data, pos)
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
    pos += 1  # single whitespace byte after maxval
    expected = width * height * channels
    raw = data[pos : pos + expected]
    if len(raw) != expected:
        raise DomainError(
            f"truncated PNM payload: expected {expected} bytes, got {len(raw)}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, channels)
    if int(pixels.max()) > maxval:
        raise DomainError(f"PNM sample {int(pixels.max())} exceeds maxval {maxval}")
    return RasterImage(intensities=pixels.astype(float) / float(maxval))


def save_pnm(image: RasterImage, path: str | Path) -> None:
    """Write a binary PGM/PPM file with 8-bit samples."""
    magic = b"P5" if image.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, image.width, image.height)
    payload = np.rint(image.intensities * 255.0).astype(np.uint8).tobytes()
    Path(path).write_bytes(header + payload)
