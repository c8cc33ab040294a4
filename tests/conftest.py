import numpy as np
import pytest
from hypothesis import strategies as st

from spdprivacy.geometry import SymMatrix, expm


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
