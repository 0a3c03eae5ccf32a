import numpy as np
import pytest

from ristensor.tensor_ops import (
    ShapeError,
    SingularMatrixError,
    crandn,
    dft_matrix,
    khatri_rao,
    pinv_left,
    pinv_right,
    unfold_mode1,
    unfold_mode2,
)


def test_khatri_rao_identity_columns():
    out = khatri_rao(np.eye(2), np.eye(2))
    assert out.shape == (4, 2)
    np.testing.assert_array_equal(out[:, 0], [1, 0, 0, 0])
    np.testing.assert_array_equal(out[:, 1], [0, 0, 0, 1])


def test_khatri_rao_single_column():
    out = khatri_rao(np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))
    np.testing.assert_array_equal(out, [[3.0], [4.0], [6.0], [8.0]])


def test_khatri_rao_matches_elementwise_definition():
    rng = np.random.default_rng(0)
    a = crandn(rng, (3, 2))
    b = crandn(rng, (4, 2))
    out = khatri_rao(a, b)
    expected = np.empty((12, 2), dtype=complex)
    for j in range(2):
        for i in range(3):
            for k in range(4):
                expected[i * 4 + k, j] = a[i, j] * b[k, j]
    np.testing.assert_allclose(out, expected, rtol=1e-13)


def test_khatri_rao_column_mismatch():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        khatri_rao(np.ones((2, 3)), np.ones((2, 2)))


def test_unfold_mode1_slice_concatenation():
    t = np.zeros((1, 1, 2))
    t[0, 0, 0], t[0, 0, 1] = 1.0, 2.0
    np.testing.assert_array_equal(unfold_mode1(t), [[1.0, 2.0]])
    np.testing.assert_array_equal(unfold_mode1(np.zeros((3, 4, 5))), np.zeros((3, 20)))


def test_unfold_mode2_transposed_slices():
    t = np.array([[1.0, 2.0]]).reshape(1, 2, 1)
    np.testing.assert_array_equal(unfold_mode2(t), [[1.0], [2.0]])
    np.testing.assert_array_equal(unfold_mode2(np.zeros((3, 4, 5))), np.zeros((4, 15)))


def test_unfoldings_match_factor_formulas():
    # slices A @ diag(C[b]) @ Bf.T must unfold to A (C kr Bf)^T and Bf (C kr A)^T
    rng = np.random.default_rng(2)
    m, l, n, b = 3, 5, 4, 6
    a = crandn(rng, (m, n))
    bf = crandn(rng, (l, n))
    c = crandn(rng, (b, n))
    t = np.empty((m, l, b), dtype=complex)
    for blk in range(b):
        t[:, :, blk] = a @ np.diag(c[blk]) @ bf.T
    m1 = a @ khatri_rao(c, bf).T
    m2 = bf @ khatri_rao(c, a).T
    assert np.linalg.norm(unfold_mode1(t) - m1) <= 1e-12 * np.linalg.norm(m1)
    assert np.linalg.norm(unfold_mode2(t) - m2) <= 1e-12 * np.linalg.norm(m2)


def test_unfold_rejects_matrices():
    with pytest.raises(ShapeError):
        unfold_mode1(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        unfold_mode2(np.zeros((2, 2)))


def test_pinv_right_identity_and_unit_row():
    np.testing.assert_allclose(pinv_right(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(pinv_right(np.array([[1.0, 0.0, 0.0]])), [[1.0], [0.0], [0.0]])


def test_pinv_right_of_dft_pilots_is_scaled_hermitian():
    x = dft_matrix(5)
    np.testing.assert_allclose(pinv_right(x), x.conj().T / 5, atol=1e-13)


def test_pinv_right_residual_for_full_rank_wide():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = crandn(rng, (4, 9))
        s = np.linalg.svd(a, compute_uv=False)
        assert s[0] / s[-1] < 1e6
        res = np.linalg.norm(a @ pinv_right(a) - np.eye(4))
        assert res <= 1e-9 * np.linalg.norm(a)


def test_pinv_left_cases():
    np.testing.assert_allclose(pinv_left(np.eye(4)), np.eye(4), atol=1e-14)
    np.testing.assert_allclose(pinv_left(np.array([[1.0], [1.0]])), [[0.5, 0.5]])
    # tall Khatri-Rao factor with DFT phase rows is well conditioned
    rng = np.random.default_rng(4)
    psi = dft_matrix(6)[:, :4]
    h = crandn(rng, (3, 4))
    f = khatri_rao(psi, h)
    np.testing.assert_allclose(pinv_left(f) @ f, np.eye(4), atol=1e-10)


def test_pinv_singularity_raises_with_dimensions():
    a = np.ones((3, 5), dtype=complex)  # rank 1
    with pytest.raises(SingularMatrixError, match="3x5"):
        pinv_right(a)
    with pytest.raises(SingularMatrixError):
        pinv_left(np.zeros((4, 2)))


def test_dft_matrix_values():
    np.testing.assert_array_equal(dft_matrix(1), [[1.0]])
    np.testing.assert_allclose(dft_matrix(2), [[1, 1], [1, -1]], atol=1e-15)
    f = dft_matrix(26)
    np.testing.assert_allclose(f.conj().T @ f, 26 * np.eye(26), atol=1e-10 * 26)
    np.testing.assert_allclose(f[0], np.ones(26), atol=1e-15)
    np.testing.assert_allclose(np.abs(f), np.ones((26, 26)), atol=1e-12)


def test_crandn_moments():
    rng = np.random.default_rng(6)
    samples = crandn(rng, 200000)
    assert abs(np.mean(samples)) < 0.01
    assert abs(np.mean(np.abs(samples) ** 2) - 1.0) < 0.01
