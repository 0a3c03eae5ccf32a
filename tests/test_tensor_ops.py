from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ristensor.tensor_ops import (
    _GRAM_MIN_RATIO,
    ShapeError,
    SingularMatrixError,
    block_gram_bounds,
    certified_gram_solve,
    crandn,
    dft_matrix,
    gram_solve,
    hadamard_gram_bounds,
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


@settings(max_examples=50, deadline=None)
@given(
    i=st.integers(1, 5),
    j=st.integers(1, 5),
    r=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_khatri_rao_gram_is_hadamard_of_factor_grams(i, j, r, seed):
    rng = np.random.default_rng(seed)
    a = crandn(rng, (i, r))
    b = crandn(rng, (j, r))
    kr = khatri_rao(a, b)
    expected = (a.conj().T @ a) * (b.conj().T @ b)
    assert np.linalg.norm(kr.conj().T @ kr - expected) <= 1e-13 * np.linalg.norm(expected)


def _with_singular_value_ratio(rng, rows, cols, ratio):
    # U diag(s) V^H with s log-spaced from 1 down to ratio
    u, _ = np.linalg.qr(crandn(rng, (rows, cols)))
    v, _ = np.linalg.qr(crandn(rng, (cols, cols)))
    s = np.logspace(0.0, np.log10(ratio), cols)
    return (u * s) @ v.conj().T


@settings(max_examples=100, deadline=None)
@given(
    p=st.integers(1, 6),
    extra=st.integers(0, 6),
    r=st.integers(1, 4),
    cond_exp=st.floats(0.0, 4.0),
    consistent=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_solve_matches_pinv_up_to_cond_1e4(p, extra, r, cond_exp, consistent, seed):
    # normal equations lose about eps * cond(a)**2, for a consistent rhs too
    rng = np.random.default_rng(seed)
    cond = 10.0**cond_exp
    a = _with_singular_value_ratio(rng, p + extra, p, 1.0 / cond)
    rhs = a @ crandn(rng, (p, r)) if consistent else crandn(rng, (p + extra, r))
    expected = np.linalg.pinv(a) @ rhs
    x = gram_solve(a, rhs, a.conj().T @ a)
    rtol = 100 * np.finfo(float).eps * cond**2
    assert np.linalg.norm(x - expected) <= rtol * np.linalg.norm(expected)


@settings(max_examples=50, deadline=None)
@given(
    cols=st.integers(2, 6),
    extra=st.integers(0, 4),
    cond_exp=st.floats(4.1, 11.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_solve_is_pinv_left_beyond_cond_1e4(cols, extra, cond_exp, seed):
    rng = np.random.default_rng(seed)
    a = _with_singular_value_ratio(rng, cols + extra, cols, 10.0**-cond_exp)
    rhs = crandn(rng, (cols + extra, 2))
    assert np.array_equal(gram_solve(a, rhs, a.conj().T @ a), pinv_left(a) @ rhs)


def _raises_singular(solve):
    try:
        solve()
    except SingularMatrixError as err:
        assert "singular" in str(err)
        return True
    return False


@settings(max_examples=200, deadline=None)
@given(
    cols=st.integers(2, 6),
    extra=st.integers(0, 4),
    tol_exp=st.one_of(st.just(-12.0), st.floats(-12.0, -2.0)),
    ratio_exp=st.floats(-14.0, -2.0),
    near_tol=st.one_of(st.none(), st.floats(-1e-6, 1e-6)),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_solve_raises_exactly_when_pinv_left_does(cols, extra, tol_exp, ratio_exp, near_tol, seed):
    # sigma_min / sigma_max from 1e-2 down to 1e-14, some within 2.3e-6 relative of tol
    rng = np.random.default_rng(seed)
    tol = 10.0**tol_exp
    ratio = tol * 10.0**near_tol if near_tol is not None else 10.0**ratio_exp
    a = _with_singular_value_ratio(rng, cols + extra, cols, ratio)
    rhs = crandn(rng, (cols + extra, 2))
    by_gram = _raises_singular(lambda: gram_solve(a, rhs, a.conj().T @ a, tol))
    by_svd = _raises_singular(lambda: pinv_left(a, tol))
    assert by_gram == by_svd


def test_gram_solve_falls_back_on_a_non_finite_or_zero_gram():
    a = np.zeros((4, 2), dtype=complex)
    with pytest.raises(SingularMatrixError, match="pinv_left of 4x2"):
        gram_solve(a, np.ones((4, 1)), a.conj().T @ a)
    a = np.full((4, 2), np.nan)
    with pytest.raises(np.linalg.LinAlgError):
        gram_solve(a, np.ones((4, 1)), a.conj().T @ a)


def test_dft_matrix_values():
    np.testing.assert_array_equal(dft_matrix(1), [[1.0]])
    np.testing.assert_allclose(dft_matrix(2), [[1, 1], [1, -1]], atol=1e-15)
    f = dft_matrix(26)
    np.testing.assert_allclose(f.conj().T @ f, 26 * np.eye(26), atol=1e-10 * 26)
    np.testing.assert_allclose(f[0], np.ones(26), atol=1e-15)
    np.testing.assert_allclose(np.abs(f), np.ones((26, 26)), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 9, 25, 26])
def test_dft_matrix_equals_fft_of_identity(n):
    np.testing.assert_allclose(dft_matrix(n), np.fft.fft(np.eye(n)), rtol=0, atol=1e-13)


def _outcome(solve):
    try:
        return solve()
    except SingularMatrixError:
        return "singular"


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(0, 4),
    l=st.integers(1, 5),
    k_d=st.integers(0, 4),
    cond_exp=st.floats(0.0, 5.0),
    spread_exp=st.floats(0.0, 3.0),
    tol_exp=st.floats(-12.0, -2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_certified_bounds_bracket_the_sweep_grams(n, extra, l, k_d, cond_exp, spread_exp, tol_exp, seed):
    # the two sweep Grams on a random, non-DFT Psi with cond(Psi) up to 1e5
    # and Z rows scaled over up to 3 decades: the RIS Gram (Psi^H Psi) o (Z* Z^T)
    # and the joint block Gram with direct block B X_d* X_d^T and cross block
    # (1^T Psi) o (X_d* Z^T), bounded as the sweep bounds them
    rng = np.random.default_rng(seed)
    b = n + extra
    tol = 10.0**tol_exp
    psi = _with_singular_value_ratio(rng, b, n, 10.0**-cond_exp)
    z = 10.0 ** rng.uniform(-spread_exp, 0.0, (n, 1)) * crandn(rng, (n, l))
    x_d = crandn(rng, (k_d, l))
    psi_gram = psi.conj().T @ psi
    z_gram = z.conj() @ z.T
    ris = psi_gram * z_gram
    cross = psi.sum(axis=0) * (x_d.conj() @ z.T)
    direct = b * (x_d.conj() @ x_d.T)
    joint = np.block([[direct, cross], [cross.conj().T, ris]])
    ris_bounds = hadamard_gram_bounds(np.linalg.eigvalsh(psi_gram), z_gram.diagonal().real)
    joint_bounds = block_gram_bounds(np.linalg.eigvalsh(direct), ris_bounds, cross)
    ris_a = khatri_rao(psi, z.T)
    joint_a = np.hstack([khatri_rao(np.ones((b, k_d)), x_d.T), ris_a])
    rhs = crandn(rng, (b * l, 2))
    threshold = tol * tol + _GRAM_MIN_RATIO
    for a, gram, (lo, hi) in ((ris_a, ris, ris_bounds), (joint_a, joint, joint_bounds)):
        lam = np.linalg.eigvalsh(gram)
        slack = 1e-12 * lam[-1]   # rounding of the computed spectra
        assert lo <= lam[0] + slack
        assert hi >= lam[-1] - slack
        if lo > 2.0 * threshold * hi:
            # a certified Gram is one the eigenvalue check also LU-solves
            assert lam[-1] > 0.0 and lam[0] / lam[-1] > threshold

        # so the bounds never change what the solve decides or returns
        def solve(bounds):
            return certified_gram_solve(gram, a.conj().T @ rhs, lambda: (a, rhs), tol, bounds)

        with_bounds = _outcome(lambda: solve((lo, hi)))
        without = _outcome(lambda: solve(None))
        assert np.array_equal(with_bounds, without)


@pytest.mark.parametrize("ratio_over_threshold, certified", [(0.75, False), (1.5, False), (2.5, True)])
def test_certificate_needs_a_factor_2_margin(ratio_over_threshold, certified):
    # orthonormal Psi columns make Schur's bounds exact, the Gram being
    # diag(||z_n||^2); the bounds decide alone only beyond twice the threshold
    rng = np.random.default_rng(7)
    threshold = 1e-24 + _GRAM_MIN_RATIO
    psi = _with_singular_value_ratio(rng, 5, 3, 1.0)
    z = crandn(rng, (3, 4))
    z *= (np.sqrt([1.0, 0.5, ratio_over_threshold * threshold]) / np.linalg.norm(z, axis=1))[:, None]
    psi_gram = psi.conj().T @ psi
    z_gram = z.conj() @ z.T
    gram = psi_gram * z_gram
    bounds = hadamard_gram_bounds(np.linalg.eigvalsh(psi_gram), z_gram.diagonal().real)
    a = khatri_rao(psi, z.T)
    rhs = crandn(rng, (20, 2))

    def solve(bounds):
        return certified_gram_solve(gram, a.conj().T @ rhs, lambda: (a, rhs), 1e-12, bounds)

    eigvalsh = mock.Mock(wraps=np.linalg.eigvalsh)
    with mock.patch.object(np.linalg, "eigvalsh", eigvalsh):
        got = solve(bounds)
    assert (eigvalsh.call_count == 0) == certified
    assert np.array_equal(got, solve(None))


def test_crandn_moments():
    rng = np.random.default_rng(6)
    samples = crandn(rng, 200000)
    assert abs(np.mean(samples)) < 0.01
    assert abs(np.mean(np.abs(samples) ** 2) - 1.0) < 0.01
