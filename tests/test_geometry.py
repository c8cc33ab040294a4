import math

import numpy as np
import pytest
from hypothesis import given, settings

from spdprivacy.errors import DimensionError, DomainError
from spdprivacy.geometry import (
    MAX_DIM,
    SpdMatrix,
    SymMatrix,
    TangentVector,
    ball_radius,
    expm,
    frechet_mean_le,
    identity,
    invvecd,
    invvecd_stack,
    le_add,
    le_distance,
    le_scale,
    le_sub,
    logm,
    vecd,
)
from spdprivacy.sampling import RngState, sample_synthetic_spd

from conftest import spd_pairs, sym_matrices

LN3 = math.log(3.0)


def random_spd(rng, k, scale=1.0):
    a = rng.standard_normal((k, k)) * scale / 2
    return expm(SymMatrix(0.5 * (a + a.T)))


class TestTypes:
    def test_sym_symmetrizes_small_asymmetry(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-10, 3.0]])
        s = SymMatrix(a)
        assert s.entries[0, 1] == s.entries[1, 0]
        # halving before adding gives the bits of (A + A^T)/2 for normal floats
        assert np.array_equal(s.entries, 0.5 * (a + a.T))

    def test_sym_rejects_large_asymmetry(self):
        with pytest.raises(DomainError, match="not symmetric"):
            SymMatrix([[1.0, 2.0], [2.1, 3.0]])

    def test_sym_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            SymMatrix(np.zeros((2, 3)))

    def test_sym_rejects_nonfinite(self):
        with pytest.raises(DomainError):
            SymMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_spd_rejects_indefinite(self):
        with pytest.raises(DomainError, match="not positive definite"):
            SpdMatrix([[1.0, 0.0], [0.0, -1.0]])

    def test_spd_rejects_semidefinite(self):
        with pytest.raises(DomainError, match="not positive definite"):
            SpdMatrix([[1.0, 1.0], [1.0, 1.0]])

    def test_spd_symmetrizes_without_overflow(self):
        # (A + A^T)/2 would be inf here; halving first keeps it finite
        big = 1.7e308
        x = SpdMatrix(np.diag([big, big]))
        assert np.array_equal(x.entries, np.diag([big, big]))
        assert np.allclose(logm(x).entries, math.log(big) * np.eye(2), rtol=1e-15, atol=0.0)
        assert logm(x).entries[0, 0] == pytest.approx(709.7, abs=0.05)

    def test_spd_rejects_singular_at_float64_edge(self):
        # admitted as finite and rescaled past its overflowing top eigenvalue
        # 2e308, it is rejected because it is singular
        with pytest.raises(DomainError, match="min eigenvalue 0.000000e"):
            SpdMatrix([[1e308, 1e308], [1e308, 1e308]])

    def test_spd_admits_eigenvalue_beyond_float64(self):
        # eigenvalues 2.9e307 and 2.4e308: the top one overflows float64,
        # its log does not
        big = np.array([[1e308, 1e308], [1e308, 1.7e308]])
        log_eigs = np.linalg.eigvalsh(logm(SpdMatrix(big)).entries)
        assert np.allclose(log_eigs, [707.96012232, 710.07562002], rtol=0.0, atol=1e-8)

    def test_logm_rescales_exactly(self):
        from spdprivacy.geometry import logm_stack

        # log(A) = log(A 2^-s) + s ln 2 I for the exact scaling by 2^-s
        big = np.array([[1e308, 1e308], [1e308, 1.7e308]])
        for s in (3, 20):
            shift = logm_stack(big) - logm_stack(np.ldexp(big, -s))
            assert np.allclose(shift, s * math.log(2.0) * np.eye(2), rtol=0.0, atol=1e-12)

    def test_spd_accepts_identity(self):
        x = identity(3)
        assert x.dim == 3

    def test_dimension_cap(self):
        with pytest.raises(DimensionError, match="cap"):
            SymMatrix(np.eye(MAX_DIM + 1))

    def test_tangent_vector_length_validated(self):
        TangentVector(2, [1.0, 2.0, 3.0])
        with pytest.raises(DimensionError):
            TangentVector(2, [1.0, 2.0])

    def test_tangent_vector_rejects_non_integer_dimension(self):
        with pytest.raises(DimensionError, match="integer"):
            TangentVector(2.5, [1.0, 2.0, 3.0])
        v = TangentVector(np.int64(2), [1.0, 2.0, 3.0])
        assert v.dim_ambient == 2 and type(v.dim_ambient) is int

    def test_identity_rejects_non_integer_dimension(self):
        with pytest.raises(DimensionError, match="integer"):
            identity(2.9)
        assert np.array_equal(identity(np.int64(2)).entries, np.eye(2))

    def test_invvecd_stack_rejects_non_integer_dimension(self):
        z = np.arange(6.0).reshape(2, 3)
        with pytest.raises(DimensionError, match="integer"):
            invvecd_stack(z, 2.9)
        assert np.array_equal(invvecd_stack(z, np.int64(2)), invvecd_stack(z, 2))

    def test_invvecd_stack_rejects_zero_dimension(self):
        # the empty vector is not the image of a 0 x 0 matrix: k >= 1 everywhere
        with pytest.raises(DimensionError, match=">= 1"):
            invvecd_stack(np.zeros(0), 0)

    def test_entries_read_only(self):
        x = identity(2)
        with pytest.raises(ValueError):
            x.entries[0, 0] = 5.0


class TestLogExp:
    def test_logm_identity_is_zero(self):
        assert np.allclose(logm(identity(4)).entries, 0.0, atol=1e-14)

    def test_logm_diagonal(self):
        x = SpdMatrix(np.diag([math.e**2, 1.0]))
        assert np.allclose(logm(x).entries, np.diag([2.0, 0.0]), atol=1e-12)

    def test_logm_hand_assembled(self):
        # eigenpairs (1, (1,-1)/sqrt2), (3, (1,1)/sqrt2) give (ln3/2) * ones
        x = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
        expected = 0.5 * LN3 * np.ones((2, 2))
        assert np.allclose(logm(x).entries, expected, atol=1e-12)

    def test_expm_zero_is_identity(self):
        assert np.allclose(expm(SymMatrix(np.zeros((3, 3)))).entries, np.eye(3))

    def test_expm_up_to_log_float64_max(self):
        from spdprivacy.errors import NumericalError
        from spdprivacy.geometry import LOG_FLOAT64_MAX, expm_stack

        assert LOG_FLOAT64_MAX == math.log(np.finfo(float).max)
        assert np.array_equal(expm_stack(709.7 * np.eye(2)), math.exp(709.7) * np.eye(2))
        # the rebuild's diagonal is about 1.6e308, twice which overflows
        c = math.sqrt(0.5)
        rotation = np.array([[c, -c], [c, c]])
        log_x = rotation @ np.diag([709.7, 709.6]) @ rotation.T
        x = expm_stack(log_x)
        assert np.isfinite(x).all() and x[0, 0] > 1.5e308
        assert np.allclose(logm(SpdMatrix(x)).entries, log_x, rtol=0.0, atol=1e-9)
        with pytest.raises(NumericalError, match=r"709.8 exceeds ln\(float64 max\) = 709.782712893384$"):
            expm_stack(709.8 * np.eye(2))
        with pytest.raises(NumericalError):
            expm_stack(np.full((2, 2), np.nan))

    def test_expm_rescales_past_log_float64_max(self):
        from spdprivacy.errors import NumericalError
        from spdprivacy.geometry import expm_stack, logm_stack

        # log-eigenvalues 707.96 and 710.08: the top exponential overflows
        # float64, every entry of the matrix does not
        big = np.array([[1e308, 1e308], [1e308, 1.7e308]])
        assert np.allclose(expm_stack(logm_stack(big)), big, rtol=1e-13, atol=0.0)
        stack = expm_stack(np.stack([logm_stack(big), np.zeros((2, 2))]))
        assert np.allclose(stack, [big, np.eye(2)], rtol=1e-13, atol=0.0)
        # exp(710.4) = 2.2e308 on the diagonal overflows
        with pytest.raises(NumericalError, match=r"710.4 exceeds ln\(float64 max\)"):
            expm_stack(710.4 * np.eye(2))

    def test_expm_diagonal(self):
        s = SymMatrix(np.diag([1.0, -1.0]))
        assert np.allclose(expm(s).entries, np.diag([math.e, 1.0 / math.e]), atol=1e-12)

    def test_rebuild_matches_einsum_form(self, nprng):
        from spdprivacy.geometry import _rebuild

        for k in (2, 10, 30):
            basis = np.linalg.qr(nprng.standard_normal((50, k, k)))[0]
            eigs = 3.0 * nprng.standard_normal((50, k))
            ref = np.einsum("...ij,...j,...kj->...ik", basis, eigs, basis)
            ref = 0.5 * (ref + np.swapaxes(ref, -1, -2))
            assert np.allclose(_rebuild(basis, eigs), ref, rtol=0.0, atol=1e-13)

    def test_logm_rejects_non_spd_array(self):
        from spdprivacy.geometry import logm_stack

        with pytest.raises(DomainError, match="not positive definite"):
            logm_stack(np.diag([1.0, -2.0]))
        # eigh of a non-finite matrix is NaN, which fails the test too
        with pytest.raises(DomainError, match="not positive definite"):
            logm_stack(np.diag([np.inf, 1.0]))

    @given(sym_matrices())
    @settings(max_examples=60)
    def test_roundtrip_logm_expm(self, s):
        back = logm(expm(s)).entries
        denom = max(1.0, np.linalg.norm(s.entries))
        assert np.linalg.norm(back - s.entries) / denom <= 1e-8

    @given(spd_pairs())
    @settings(max_examples=60)
    def test_roundtrip_expm_logm(self, pair):
        x, _ = pair
        back = expm(logm(x)).entries
        assert np.linalg.norm(back - x.entries) / np.linalg.norm(x.entries) <= 1e-8


class TestVecd:
    def test_example(self):
        v = vecd(SymMatrix([[1.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(v.coords, [1.0, 3.0, 2.0 * math.sqrt(2.0)], atol=1e-15)

    def test_zero(self):
        v = vecd(SymMatrix(np.zeros((4, 4))))
        assert v.coords.shape == (10,)
        assert np.all(v.coords == 0.0)

    def test_row_major_upper_order(self):
        s = SymMatrix(
            [[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]
        )
        v = vecd(s)
        assert np.allclose(v.coords[3:], np.sqrt(2.0) * np.array([1.0, 2.0, 3.0]))

    @given(sym_matrices())
    def test_norm_preserved(self, s):
        # direct Frobenius sum as the oracle
        frob = math.sqrt(float(np.sum(s.entries**2)))
        assert abs(np.linalg.norm(vecd(s).coords) - frob) <= 1e-12 * (1 + frob)

    def test_invvecd_example(self):
        v = TangentVector(2, [1.0, 3.0, 2.0 * math.sqrt(2.0)])
        assert np.allclose(invvecd(v).entries, [[1.0, 2.0], [2.0, 3.0]], atol=1e-15)

    def test_invvecd_zero(self):
        v = TangentVector(3, np.zeros(6))
        assert np.all(invvecd(v).entries == 0.0)

    def test_roundtrip_hundred_random(self, nprng):
        for _ in range(100):
            k = int(nprng.integers(1, 6))
            a = nprng.standard_normal((k, k))
            s = SymMatrix(0.5 * (a + a.T))
            back = invvecd(vecd(s)).entries
            assert np.max(np.abs(back - s.entries)) <= 1e-15 * max(
                1.0, np.max(np.abs(s.entries))
            )


class TestDistance:
    def test_zero_on_equal(self):
        x = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert le_distance(x, x) == 0.0

    def test_hand_value(self):
        x = SpdMatrix(np.diag([math.e**2, 1.0]))
        assert abs(le_distance(x, identity(2)) - 2.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            le_distance(identity(2), identity(3))

    @given(spd_pairs())
    @settings(max_examples=60)
    def test_symmetry(self, pair):
        x1, x2 = pair
        assert le_distance(x1, x2) == pytest.approx(le_distance(x2, x1), abs=1e-12)

    def test_triangle_inequality(self, nprng):
        for _ in range(50):
            k = int(nprng.integers(2, 4))
            a, b, c = (random_spd(nprng, k) for _ in range(3))
            assert le_distance(a, c) <= le_distance(a, b) + le_distance(b, c) + 1e-10

    @given(spd_pairs())
    @settings(max_examples=60)
    def test_isometry_with_vecd(self, pair):
        x1, x2 = pair
        dist = le_distance(x1, x2)
        flat = np.linalg.norm(vecd(logm(x1)).coords - vecd(logm(x2)).coords)
        assert abs(dist - flat) <= 1e-10 * (1 + dist)


class TestVectorSpaceOps:
    def test_sub_self_is_identity(self):
        x = SpdMatrix([[3.0, 1.0], [1.0, 2.0]])
        assert np.allclose(le_sub(x, x).entries, np.eye(2), atol=1e-8)

    def test_scale_minus_one(self):
        x = SpdMatrix(np.diag([2.0, 1.0]))
        assert np.allclose(le_scale(-1.0, x).entries, np.diag([0.5, 1.0]), atol=1e-12)

    def test_add_diagonal(self):
        x = SpdMatrix(np.diag([math.e, 1.0]))
        assert np.allclose(le_add(x, x).entries, np.diag([math.e**2, 1.0]), atol=1e-12)

    def test_scale_zero_is_identity(self):
        x = SpdMatrix([[4.0, 1.0], [1.0, 3.0]])
        assert np.allclose(le_scale(0.0, x).entries, np.eye(2), atol=1e-8)

    @given(spd_pairs())
    @settings(max_examples=40)
    def test_add_commutative(self, pair):
        x1, x2 = pair
        left = le_add(x1, x2).entries
        right = le_add(x2, x1).entries
        assert np.linalg.norm(left - right) <= 1e-8 * (1 + np.linalg.norm(left))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            le_add(identity(2), identity(3))


class TestFrechetMean:
    def test_single_element_returned(self):
        x = SpdMatrix([[2.0, 0.5], [0.5, 1.0]])
        assert frechet_mean_le([x]) is x

    def test_hand_value(self):
        data = [SpdMatrix(np.diag([math.e**2, 1.0])), identity(2)]
        assert np.allclose(
            frechet_mean_le(data).entries, np.diag([math.e, 1.0]), atol=1e-12
        )

    def test_repeated_element(self):
        x = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
        mean = frechet_mean_le([x, x, x])
        assert np.allclose(mean.entries, x.entries, atol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            frechet_mean_le([])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            frechet_mean_le([identity(2), identity(3)])

    def test_translation_equivariance(self, nprng):
        for _ in range(25):
            k = int(nprng.integers(2, 4))
            data = [random_spd(nprng, k) for _ in range(4)]
            shift = random_spd(nprng, k)
            lhs = frechet_mean_le([le_add(x, shift) for x in data])
            rhs = le_add(frechet_mean_le(data), shift)
            assert le_distance(lhs, rhs) <= 1e-8

    def test_local_optimality(self, nprng):
        from spdprivacy.geometry import invvecd_stack

        for _ in range(20):
            k = int(nprng.integers(2, 4))
            n = int(nprng.integers(1, 6))
            data = [random_spd(nprng, k) for _ in range(n)]
            mean = frechet_mean_le(data)
            base = sum(le_distance(mean, x) ** 2 for x in data)
            d = k * (k + 1) // 2
            for _ in range(5):
                direction = nprng.standard_normal(d)
                direction *= 1e-3 / np.linalg.norm(direction)
                bump = expm(SymMatrix(invvecd_stack(direction, k)))
                perturbed = le_add(mean, bump)
                moved = sum(le_distance(perturbed, x) ** 2 for x in data)
                assert moved >= base - 1e-12


class TestBallRadius:
    def test_center_only(self):
        x = identity(2)
        assert ball_radius([x], x) == 0.0

    def test_hand_value(self):
        data = [identity(2), SpdMatrix(np.diag([math.e**2, 1.0]))]
        assert abs(ball_radius(data, identity(2)) - 2.0) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            ball_radius([], identity(2))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ball_radius([identity(2), identity(3)], identity(2))

    def test_synthetic_data_within_guarantee(self):
        rng = RngState(11)
        k, r = 5, 0.25
        data = [sample_synthetic_spd(rng, k, r) for _ in range(200)]
        radius = ball_radius(data, identity(k))
        assert radius <= math.sqrt(k) * r * (1 + 1e-12) + 1e-12
