import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from spdprivacy.geometry import SymMatrix, expm

# Every property test draws the same examples in every run: Tier-1 passes or
# fails as a function of the code alone, and a slow first call (an import, a
# BLAS warm-up) is not a deadline failure.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@st.composite
def sym_matrices(draw, min_dim=1, max_dim=4, scale=2.0):
    """Random symmetric matrices with entries bounded by ``scale``."""
    k = draw(st.integers(min_dim, max_dim))
    flat = draw(
        st.lists(
            st.floats(-scale, scale, allow_nan=False, allow_infinity=False),
            min_size=k * k,
            max_size=k * k,
        )
    )
    a = np.array(flat).reshape(k, k)
    return SymMatrix(0.5 * (a + a.T))


@st.composite
def spd_matrices(draw, min_dim=1, max_dim=4, log_scale=1.5):
    """Random SPD matrices with log-eigenvalues bounded by ~log_scale."""
    s = draw(sym_matrices(min_dim=min_dim, max_dim=max_dim, scale=log_scale / 2))
    return expm(s)


@st.composite
def spd_pairs(draw, max_dim=4):
    s1 = draw(sym_matrices(min_dim=2, max_dim=max_dim))
    k = s1.dim
    s2 = draw(sym_matrices(min_dim=k, max_dim=k))
    return expm(s1), expm(s2)


@pytest.fixture
def nprng():
    return np.random.default_rng(20240817)


def peak_bytes(fn, *args, **kwargs):
    """Peak traced memory of one call of ``fn``, in bytes above what was
    allocated before it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def one_shot_logs(rng, k, r, n):
    """Reference: the draw as one (n, k, k) block, n·k uniforms then n·k²
    normals in one call each, one batched QR, and the rebuild written out."""
    lam = rng.generator.uniform(np.exp(-r), np.exp(r), size=(n, k))
    basis = np.linalg.qr(rng.generator.standard_normal((n, k, k)))[0]
    out = (basis * np.log(lam)[:, None, :]) @ np.swapaxes(basis, -1, -2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def signed_haar_basis(gauss):
    """Reference: the Q factor of a Gaussian matrix with its columns signed
    by the R diagonal, which makes it exactly Haar (Mezzadri 2007)."""
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs
