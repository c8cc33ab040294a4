import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import spdprivacy
from spdprivacy.descriptors import (
    KERNEL_DX,
    KERNEL_DXX,
    KERNEL_DY,
    KERNEL_DYY,
    DescriptorParams,
    RasterImage,
    _BlockBuffers,
    _decode_pnm,
    covariance_descriptor,
    descriptor_radius_bound,
    load_pnm,
    save_pnm,
)
from spdprivacy.errors import DomainError
from spdprivacy.geometry import identity, le_distance, logm_stack


@st.composite
def pnm_like_bytes(draw):
    """Byte strings shaped like a P5/P6 file: a magic, three header tokens
    (mostly small integers, sometimes junk), separators with optional
    comments, and a payload whose length is near the announced size."""
    magic = draw(st.sampled_from([b"P5", b"P6", b"P5", b"P6", b"P4", b"5P", b"P5#", b"P55"]))
    sep = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\n# c 7\n", b"#x", b"", b"\x0b",
                           b"\x0c", b"\r", b" #c\r", b"\n#\n#\n", b"\xa0", b"\n# 9 9\x0b"])
    junk = st.sampled_from([b"1_0", b"+3", b"-1", b"0", b"0x10", b"\xff", b"9" * 5000, b"256",
                            b"1#2", b"000000001", b"1234567890", b"\xd9\xa3", b""])
    fields = [draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 255))]
    tokens = [draw(st.one_of(st.just(str(v).encode()), junk)) if draw(st.booleans())
              else str(v).encode() for v in fields]
    lead = draw(st.sampled_from([b"", b"", b"# lead\n", b" \t", b"#"]))
    head = lead + magic + b"".join(draw(sep) + t for t in tokens)
    head += draw(st.sampled_from([b"\n", b"\n", b" ", b""]))
    size = fields[0] * fields[1] * (1 if magic == b"P5" else 3) + draw(st.integers(-1, 1))
    payload = draw(st.binary(min_size=max(size, 0), max_size=max(size, 0)))
    return head + payload


def _reference_pnm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """The byte-at-a-time header tokenizer that the header regex of
    ``_decode_pnm`` replaced, kept as its reference."""
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


def _reference_decode_pnm(data: bytes) -> RasterImage:
    """``_decode_pnm`` as written with :func:`_reference_pnm_token`."""
    magic, pos = _reference_pnm_token(data, 0)
    if magic not in (b"P5", b"P6"):
        raise DomainError(f"unsupported PNM magic {magic!r}; only binary P5/P6")
    fields = []
    for _ in range(3):
        token, pos = _reference_pnm_token(data, pos)
        if not token.isdigit() or len(token) > 9:
            raise DomainError(f"invalid PNM header token {token[:20]!r}")
        fields.append(int(token))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise DomainError(f"invalid PNM dimensions {width}x{height}")
    if not (0 < maxval <= 255):
        raise DomainError(f"only 8-bit PNM supported, got maxval {maxval}")
    channels = 1 if magic == b"P5" else 3
    pos += 1
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


def gray_image(rng, h=12, w=12):
    return RasterImage(rng.integers(0, 256, size=(h, w, 1)) / 255.0)


def rgb_image(rng, h=12, w=12):
    return RasterImage(rng.integers(0, 256, size=(h, w, 3)) / 255.0)


def features(image):
    """The feature layers of one image as an (h, w, 8 + c) field."""
    buffers = _BlockBuffers(1, image.height, image.width, image.channels)
    return buffers.features(image.intensities[None])[0].T.reshape(image.height, image.width, -1)


def conv_replicate_reference(img, kernel):
    """Naive direct convolution with replicate padding, the hand oracle."""
    h, w = img.shape
    kh, kw = kernel.shape
    rh, rw = kh // 2, kw // 2
    out = np.zeros_like(img)
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for a in range(kh):
                for b in range(kw):
                    # true convolution flips the kernel
                    ii = min(max(i + rh - a, 0), h - 1)
                    jj = min(max(j + rw - b, 0), w - 1)
                    acc += kernel[a, b] * img[ii, jj]
            out[i, j] = acc
    return out


LUMA = np.array([0.299, 0.587, 0.114])
SHAPES = [(12, 12), (9, 7), (1, 1), (1, 5), (5, 1), (2, 2), (3, 7)]


def scipy_descriptor(intensities, eta):
    """The per-image descriptor from features filtered by
    ``scipy.ndimage.convolve``: the reference for the batched pipeline."""
    h, w, c = intensities.shape
    lum = intensities[:, :, 0] if c == 1 else intensities @ LUMA
    xs = np.zeros(w) if w == 1 else np.arange(w) / (w - 1)
    ys = np.zeros(h) if h == 1 else np.arange(h) / (h - 1)
    d_x, d_y, d_xx, d_yy = (
        np.abs(ndimage.convolve(lum, k, mode="nearest"))
        for k in (KERNEL_DX, KERNEL_DY, KERNEL_DXX, KERNEL_DYY)
    )
    layers = (
        [np.broadcast_to(xs[None, :], (h, w)), np.broadcast_to(ys[:, None], (h, w))]
        + [intensities[:, :, i] for i in range(c)]
        + [d_x, d_y, d_xx, d_yy, np.sqrt(d_x**2 + d_y**2), np.arctan2(d_x, d_y)]
    )
    flat = np.stack(layers, axis=-1).reshape(h * w, -1)
    centered = flat - flat.mean(axis=0)
    cov = centered.T @ centered / (h * w)
    return 0.5 * (cov + cov.T) + eta * np.eye(flat.shape[1])


def edgy_stack(rng, n, h, w, c):
    """Random images with flat patches and steps, so many pixels have a zero
    gradient in one or both directions."""
    stack = rng.integers(0, 256, size=(n, h, w, c)) / 255.0
    stack[: n // 2, : h // 2] = 0.5
    stack[: n // 2, :, : w // 3] = 1.0
    stack[n // 2 :, h // 3 :, w // 2 :] = 0.25
    return stack


class TestBatchedPipeline:
    """The batched, scipy-free pipeline against ``scipy.ndimage``.

    Derivative responses must match ``ndimage.convolve`` bit for bit, not
    just closely: the orientation feature arctan2(|Ix|, |Iy|) jumps by up
    to pi/2 where the gradient vanishes, so rounding noise of 1e-17 on a
    zero response would move a descriptor by far more than rounding.
    """

    @pytest.mark.parametrize("c", [1, 3])
    # plus the benchmark corpus sizes, 28x28 gray and 40x40 RGB
    @pytest.mark.parametrize("h,w", SHAPES + [(28, 28), (40, 40)])
    def test_derivatives_equal_ndimage_convolve(self, h, w, c):
        rng = np.random.default_rng(100 + h * 10 + w + c)
        stack = edgy_stack(rng, 6, h, w, c)
        lum = stack[..., 0] if c == 1 else stack @ LUMA
        # the same stack scaled into the subnormal range, where each
        # weighted term rounds (2^-1030 is below the smallest normal 2^-1022)
        tiny = lum * 2.0**-1030
        assert np.any((tiny > 0) & (tiny < np.finfo(float).tiny))
        buffers = _BlockBuffers(6, h, w, 1)
        for values in (lum, tiny):
            kernels = (KERNEL_DX, KERNEL_DY, KERNEL_DXX, KERNEL_DYY)
            # each response is checked before the next overwrites its buffer
            for kernel, layer in zip(kernels, buffers._derivatives(values), strict=True):
                assert layer.shape == (6, h, w)
                for i in range(6):
                    want = ndimage.convolve(values[i], kernel, mode="nearest")
                    assert np.array_equal(layer[i], want)

    @pytest.mark.parametrize("c", [1, 3])
    @pytest.mark.parametrize("h,w", SHAPES + [(28, 28), (40, 40)])
    def test_stack_equals_scipy_reference(self, h, w, c):
        rng = np.random.default_rng(200 + h * 10 + w + c)
        stack = edgy_stack(rng, 6, h, w, c)
        eta = 1e-6
        got = _BlockBuffers(*stack.shape).descriptors(stack, DescriptorParams(eta=eta))
        assert got.shape == (6, 8 + c, 8 + c)
        for i in range(6):
            want = scipy_descriptor(stack[i], eta)
            # Frobenius-relative, since near-zero entries carry only rounding
            assert np.linalg.norm(got[i] - want) <= 1e-12 * np.linalg.norm(want)
            assert np.array_equal(got[i], got[i].T)

    def test_wrappers_are_stacks_of_one(self):
        rng = np.random.default_rng(300)
        stack = edgy_stack(rng, 4, 10, 8, 3)
        batch = _BlockBuffers(*stack.shape).descriptors(stack, DescriptorParams())
        for i in range(4):
            image = RasterImage(stack[i])
            assert np.array_equal(covariance_descriptor(image).entries, batch[i])
        assert _BlockBuffers(*stack.shape).features(stack).shape == (4, 11, 80)

    def test_centering_does_not_leak_into_features(self):
        # descriptors() centers the layers in place and swaps in centered
        # grid rows; the same buffers' features() must still be raw
        rng = np.random.default_rng(301)
        stack = edgy_stack(rng, 3, 5, 7, 1)
        buffers = _BlockBuffers(*stack.shape)
        first = buffers.descriptors(stack, DescriptorParams())
        layers = buffers.features(stack)
        assert np.all(layers[:, :2, 0] == 0.0) and np.all(layers[:, :2, -1] == 1.0)
        assert np.array_equal(layers, _BlockBuffers(*stack.shape).features(stack))
        assert np.array_equal(buffers.descriptors(stack, DescriptorParams()), first)
        stack[1, 2, 3, 0] = np.nan
        with pytest.raises(DomainError, match="nonnegative"):
            buffers.descriptors(stack, DescriptorParams())

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan])
    def test_out_of_range_intensities_rejected(self, bad):
        stack = np.full((2, 4, 4, 1), 0.5)
        stack[1, 2, 3, 0] = bad
        with pytest.raises(DomainError):
            _BlockBuffers(*stack.shape).descriptors(stack, DescriptorParams())


# Code run in a fresh interpreter, then the modules it must not load.  A
# library import loads the DP core alone: not the application layer, not the
# standard modules only that layer uses, and not scipy, a test dependency
# that would add ~0.4 s to startup.  A synthetic run without a plot loads
# neither the image pipeline, nor the plotter, nor json.
FRESH_RUNS = {
    "package": (
        "import spdprivacy",
        ("spdprivacy.harness", "spdprivacy.descriptors", "spdprivacy.plotting", "spdprivacy.cli",
         "logging", "json", "argparse", "scipy"),
    ),
    "synthetic-bench": (
        "from spdprivacy.cli import main\n"
        "assert main(['synthetic-bench', '--n', '20', '--trials', '1', '--out-csv', 'x.csv']) == 0",
        ("spdprivacy.descriptors", "spdprivacy.plotting", "json"),
    ),
}


@pytest.mark.parametrize("run", FRESH_RUNS)
def test_fresh_run_loads_only_what_it_uses(run, tmp_path):
    code, unused = FRESH_RUNS[run]
    src = str(Path(spdprivacy.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        f"import sys\n{code}\nloaded = sorted(sys.modules)\n"
        "import spdprivacy\n"
        "print(loaded)\n"
        "print(set(spdprivacy.__all__) <= set(dir(spdprivacy)), hasattr(spdprivacy, 'nope'))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env, cwd=tmp_path).stdout.splitlines()
    loaded = ast.literal_eval(out[0])
    assert [m for m in loaded if m.split(".")[0] in unused or m in unused] == []
    if run == "package":
        assert [m for m in loaded if m.startswith("spdprivacy")] == [
            "spdprivacy", "spdprivacy.errors", "spdprivacy.geometry", "spdprivacy.mechanisms",
            "spdprivacy.sampling",
        ]
    # every exported name is listed before it loads, and no other name resolves
    assert out[1] == "True False"


class TestRasterImage:
    def test_channel_and_range_validation(self):
        with pytest.raises(DomainError):
            RasterImage(np.zeros((3, 3, 2)))
        with pytest.raises(DomainError):
            RasterImage(np.full((2, 2, 1), 1.5))
        with pytest.raises(DomainError):
            RasterImage(np.full((2, 2, 1), -0.1))

    def test_zero_size_rejected(self):
        with pytest.raises(DomainError):
            RasterImage(np.zeros((0, 3, 1)))

    def test_two_dim_input_promoted_to_gray(self):
        img = RasterImage(np.zeros((4, 5)))
        assert img.channels == 1
        assert img.height == 4 and img.width == 5


class TestFeatureLayers:
    def test_constant_image_has_zero_derivatives(self):
        img = RasterImage(np.full((8, 8, 1), 0.5))
        field = features(img)
        # [x, y, I, |Ix|, |Iy|, |Ixx|, |Iyy|, mag, orient]
        assert np.all(field[:, :, 3:] == 0.0)
        assert np.all(field[:, :, 2] == 0.5)

    def test_feature_dims(self):
        rng = np.random.default_rng(0)
        assert features(gray_image(rng)).shape[2] == 9
        assert features(rgb_image(rng)).shape[2] == 11

    def test_grid_coordinates_normalised(self):
        img = RasterImage(np.zeros((3, 5, 1)))
        field = features(img)
        assert field[0, 0, 0] == 0.0 and field[0, 0, 1] == 0.0
        assert field[2, 4, 0] == 1.0 and field[2, 4, 1] == 1.0
        single = features(RasterImage(np.zeros((1, 1, 1))))
        assert single[0, 0, 0] == 0.0 and single[0, 0, 1] == 0.0

    def test_horizontal_step_edge(self):
        # step in the vertical direction: rows 0-3 dark, rows 4-7 bright
        img_arr = np.zeros((8, 6, 1))
        img_arr[4:, :, :] = 1.0
        field = features(RasterImage(img_arr))
        d_y = field[:, :, 4]
        assert np.all(d_y[:2, :] == 0.0)
        assert np.all(d_y[6:, :] == 0.0)
        assert np.all(d_y[3:5, :] > 0.0)
        assert np.all(field[:, :, 3] <= 1.0)

    def test_against_naive_convolution(self):
        rng = np.random.default_rng(7)
        img = gray_image(rng, 7, 9)
        lum = img.intensities[:, :, 0]
        field = features(img)
        for col, kernel in ((3, KERNEL_DX), (4, KERNEL_DY), (5, KERNEL_DXX), (6, KERNEL_DYY)):
            expected = np.abs(conv_replicate_reference(lum, kernel))
            assert np.max(np.abs(field[:, :, col] - expected)) <= 1e-14

    def test_rgb_uses_luminance_for_derivatives(self):
        rng = np.random.default_rng(8)
        img = rgb_image(rng, 6, 6)
        lum = img.intensities @ np.array([0.299, 0.587, 0.114])
        field = features(img)
        expected = np.abs(conv_replicate_reference(lum, KERNEL_DX))
        assert np.max(np.abs(field[:, :, 5] - expected)) <= 1e-14

    def test_orientation_conventions(self):
        # vertical edge: |Iy| = 0 and |Ix| > 0 at the jump, orientation pi/2
        img_arr = np.zeros((6, 8, 1))
        img_arr[:, 4:, :] = 1.0
        field = features(RasterImage(img_arr))
        orient = field[:, :, 8]
        assert np.all(orient[:, 3:5] == math.pi / 2)
        assert np.all(orient[:, 0] == 0.0)

    def test_component_bounds(self):
        rng = np.random.default_rng(9)
        for img in (gray_image(rng), rgb_image(rng)):
            field = features(img)
            c = img.channels
            flat = field.reshape(-1, field.shape[2])
            assert flat.min() >= 0.0
            assert np.all(flat[:, : 2 + c + 4] <= 1.0 + 1e-12)
            assert np.all(flat[:, 2 + c + 4] <= math.sqrt(2.0) + 1e-12)
            assert np.all(flat[:, 2 + c + 5] <= math.pi / 2 + 1e-12)


class TestCovarianceDescriptor:
    def test_single_constant_pixel_gives_eta_identity(self):
        img = RasterImage(np.full((1, 1, 1), 0.3))
        eta = 1e-6
        desc = covariance_descriptor(img, DescriptorParams(eta=eta))
        assert np.allclose(desc.entries, eta * np.eye(9), atol=1e-18)

    def test_spectral_cap_gray(self):
        rng = np.random.default_rng(10)
        eta = 1e-6
        for _ in range(25):
            desc = covariance_descriptor(gray_image(rng), DescriptorParams(eta=eta))
            assert np.linalg.eigvalsh(desc.entries)[-1] <= 12.0 + eta + 1e-9

    def test_spectral_cap_rgb(self):
        rng = np.random.default_rng(11)
        eta = 1e-6
        for _ in range(25):
            desc = covariance_descriptor(rgb_image(rng), DescriptorParams(eta=eta))
            assert np.linalg.eigvalsh(desc.entries)[-1] <= 14.0 + eta + 1e-9

    def test_eigenvalue_floor(self):
        rng = np.random.default_rng(12)
        eta = 1e-6
        for make in (gray_image, rgb_image):
            desc = covariance_descriptor(make(rng), DescriptorParams(eta=eta))
            assert np.linalg.eigvalsh(desc.entries)[0] >= eta - 1e-12

    def test_within_radius_bound(self):
        rng = np.random.default_rng(13)
        eta = 1e-6
        for make, c in ((gray_image, 1), (rgb_image, 3)):
            bound = descriptor_radius_bound(c, eta)
            for _ in range(10):
                desc = covariance_descriptor(
                    make(rng, 28, 28), DescriptorParams(eta=eta)
                )
                assert le_distance(desc, identity(desc.dim)) <= bound

    def test_intensity_shift_leaves_descriptor_unchanged(self):
        rng = np.random.default_rng(14)
        base = rng.integers(0, 128, size=(10, 10, 1)) / 255.0  # <= 0.498
        img_lo = RasterImage(base)
        img_hi = RasterImage(base + 0.4)
        d_lo = covariance_descriptor(img_lo).entries
        d_hi = covariance_descriptor(img_hi).entries
        assert np.linalg.norm(d_lo - d_hi) <= 1e-10


class TestRadiusBound:
    def test_gray_small_eta(self):
        got = descriptor_radius_bound(1, 1e-6)
        assert got == pytest.approx(3.0 * abs(math.log(1e-6)), rel=1e-15)
        assert got == pytest.approx(41.44653167389282, rel=1e-12)

    def test_eta_one_uses_upper_branch(self):
        assert descriptor_radius_bound(1, 1.0) == pytest.approx(
            3.0 * math.log(13.0), rel=1e-15
        )
        assert descriptor_radius_bound(3, 1.0) == pytest.approx(
            math.sqrt(11.0) * math.log(15.0), rel=1e-15
        )

    def test_validation(self):
        with pytest.raises(DomainError):
            descriptor_radius_bound(2, 1e-6)
        with pytest.raises(DomainError):
            descriptor_radius_bound(1, 0.0)


class TestPnmIO:
    def test_gray_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        img = gray_image(rng, 9, 7)
        path = tmp_path / "img.pgm"
        save_pnm(img, path)
        back = load_pnm(path)
        assert back.channels == 1
        assert np.array_equal(back.intensities, img.intensities)

    def test_rgb_roundtrip(self, tmp_path):
        rng = np.random.default_rng(16)
        img = rgb_image(rng, 5, 11)
        path = tmp_path / "img.ppm"
        save_pnm(img, path)
        back = load_pnm(path)
        assert back.channels == 3
        assert np.array_equal(back.intensities, img.intensities)

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n" + bytes([0, 64, 128, 255]))
        img = load_pnm(path)
        assert img.width == 2 and img.height == 2
        assert img.intensities[1, 1, 0] == 1.0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "a.pbm"
        path.write_bytes(b"P4\n2 2\n\x00\x00")
        with pytest.raises(DomainError, match="magic"):
            load_pnm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(DomainError, match="truncated"):
            load_pnm(path)

    def test_wide_maxval_rejected(self, tmp_path):
        path = tmp_path / "w.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(DomainError, match="8-bit"):
            load_pnm(path)

    def test_samples_scale_by_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n100\n" + bytes([100, 50]))
        img = load_pnm(path)
        assert np.array_equal(img.intensities[0, :, 0], [1.0, 0.5])

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 1\n100\n" + bytes([100, 200]))
        with pytest.raises(DomainError, match="exceeds maxval"):
            load_pnm(path)

    @pytest.mark.parametrize("token", [b"+2", b"1_0", b"0x2", b"9" * 5000])
    def test_non_decimal_header_token_rejected(self, tmp_path, token):
        path = tmp_path / "n.pgm"
        path.write_bytes(b"P5\n" + token + b" 1\n255\n" + bytes(16))
        with pytest.raises(DomainError, match="header token"):
            load_pnm(path)

    @settings(max_examples=1000, deadline=None)
    @given(data=st.one_of(st.binary(max_size=64), pnm_like_bytes()))
    def test_header_fuzz_gives_image_or_domain_error(self, data):
        # differential: the header regex accepts, rejects (with the same
        # message) and decodes exactly as the byte-wise reference tokenizer
        try:
            want = _reference_decode_pnm(data)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                _decode_pnm(data)
            assert str(got.value) == str(exc)
            return
        img = _decode_pnm(data)
        assert np.array_equal(img.intensities, want.intensities)
        assert isinstance(img, RasterImage)
        assert img.height * img.width * img.channels <= len(data)
        assert 0.0 <= img.intensities.min() <= img.intensities.max() <= 1.0

    def test_descriptor_from_file(self, tmp_path):
        rng = np.random.default_rng(17)
        img = gray_image(rng, 8, 8)
        path = tmp_path / "d.pgm"
        save_pnm(img, path)
        desc = covariance_descriptor(load_pnm(path))
        assert desc.dim == 9
        assert np.linalg.norm(logm_stack(desc.entries)) <= descriptor_radius_bound(1, 1e-6)
