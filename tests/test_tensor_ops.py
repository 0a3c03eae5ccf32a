import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ristensor.tensor_ops import (
    _GRAM_MIN_RATIO,
    ShapeError,
    SingularMatrixError,
    crandn,
    diagonal_solves,
    dft_matrix,
    has_orthogonal_rows,
    is_scaled_unitary,
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
    # an exactly zero singular value raises, with no divide-by-zero warning
    with pytest.raises(SingularMatrixError):
        pinv_left(np.diag([1.0, 0.0]))


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


def _scaled_columns(rng, rows, cols, ratio):
    # orthonormal columns U scaled by s log-spaced from 1 down to ratio: a
    # Gram diag(s**2) up to rounding, and sigma_min / sigma_max = ratio
    q, _ = np.linalg.qr(crandn(rng, (rows, cols)))
    return q * np.logspace(0.0, np.log10(ratio), cols)


def _with_singular_value_ratio(rng, rows, cols, ratio):
    # U diag(s) V^H, a dense Gram with the same singular values
    us = _scaled_columns(rng, rows, cols, ratio)
    v, _ = np.linalg.qr(crandn(rng, (cols, cols)))
    return us @ v.conj().T


EPS = np.finfo(float).eps
SQRT_EPS = np.sqrt(EPS)


def _col_sqnorms(a):
    return (np.abs(a) ** 2).sum(axis=0)


def _solve_via_gram(a, rhs, tol=1e-12):
    # diagonal_solves on a stack of one explicit regressor's Gram diagonal
    # and right-hand side; returns (x, whether it was solved)
    x, refused = diagonal_solves(_col_sqnorms(a)[None], (a.conj().T @ rhs)[None], tol)
    return x[0], len(refused) == 0


def _scaled_off_diagonal(gram):
    # |E| of G = S (I + E) S, S = diag(G)^1/2
    s = np.sqrt(gram.diagonal().real)
    e = np.abs(gram) / np.outer(s, s)
    np.fill_diagonal(e, 0.0)
    return e


@settings(max_examples=100, deadline=None)
@given(
    p=st.integers(1, 6),
    extra=st.integers(0, 6),
    r=st.integers(1, 4),
    cond_exp=st.floats(0.0, 3.8),
    consistent=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_solve_matches_pinv_up_to_cond_1e4(p, extra, r, cond_exp, consistent, seed):
    # orthogonal columns scaled up to cond 1e3.8, whose Gram is diagonal to
    # rounding, are solved by division, and x is pinv(a) rhs to within
    # eps * cond(a)**2, for a consistent rhs too, plus rho * cond(a) from
    # the Gram's rounding-size off-diagonal: x - x* = S^-1 E S x*
    rng = np.random.default_rng(seed)
    cond = 10.0**cond_exp
    a = _scaled_columns(rng, p + extra, p, 1.0 / cond)
    rhs = a @ crandn(rng, (p, r)) if consistent else crandn(rng, (p + extra, r))
    expected = np.linalg.pinv(a) @ rhs
    x, solvable = _solve_via_gram(a, rhs)
    assert solvable
    rho = _scaled_off_diagonal(a.conj().T @ a).sum(axis=1).max()
    rtol = 100 * EPS * cond**2 + 2 * rho * cond
    assert np.linalg.norm(x - expected) <= rtol * np.linalg.norm(expected)


@settings(max_examples=50, deadline=None)
@given(
    cols=st.integers(2, 6),
    extra=st.integers(0, 4),
    cond_exp=st.floats(4.1, 11.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_solve_refuses_beyond_cond_1e4(cols, extra, cond_exp, seed):
    # a Gram diagonal to rounding whose diagonal shows an eigenvalue ratio
    # below twice the floor is not solvable, without a warning
    rng = np.random.default_rng(seed)
    a = _scaled_columns(rng, cols + extra, cols, 10.0**-cond_exp)
    _, solvable = _solve_via_gram(a, crandn(rng, (cols + extra, 2)))
    assert not solvable


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
def test_gram_solve_refuses_wherever_pinv_left_raises(cols, extra, tol_exp, ratio_exp, near_tol, seed):
    # sigma_min / sigma_max from 1e-2 down to 1e-14, some within 2.3e-6
    # relative of tol, on orthogonal columns: the division needs twice
    # tol**2 (plus the floor) on the diagonal, so it refuses every Gram whose
    # regressor the SVD calls singular, and near tol it refuses them all
    rng = np.random.default_rng(seed)
    tol = 10.0**tol_exp
    ratio = tol * 10.0**near_tol if near_tol is not None else 10.0**ratio_exp
    a = _scaled_columns(rng, cols + extra, cols, ratio)
    _, solvable = _solve_via_gram(a, crandn(rng, (cols + extra, 2)), tol)
    if _raises_singular(lambda: pinv_left(a, tol)):
        assert not solvable
    if near_tol is not None:
        assert not solvable


def _tier_stack(rng, p=4, rows=9):
    # regressors q diag(s) on one orthonormal q, whose Grams are diagonal to
    # rounding; their diagonals take each outcome: well conditioned
    # (solvable), cond 1e6, a zero column and a NaN column (refused)
    q, _ = np.linalg.qr(crandn(rng, (rows, p)))
    scales = ([1.0, 2.0, 3.0, 4.0], [1.0, 1e-2, 1e-4, 1e-6], [1.0, 2.0, 0.0, 4.0],
              [1.0, np.nan, 3.0, 4.0])
    regressors = [q * np.array(s) for s in scales]
    rhs = [crandn(rng, (rows, 2)) for _ in regressors]
    diag = np.stack([_col_sqnorms(a) for a in regressors])
    a_h_rhs = np.stack([a.conj().T @ r for a, r in zip(regressors, rhs)])
    return diag, a_h_rhs


def _alone(diag, a_h_rhs, i):
    # diagonal_solves on Gram i in a stack of one
    x, refused = diagonal_solves(diag[i : i + 1], a_h_rhs[i : i + 1])
    return x[0], len(refused) == 0


def test_stacked_gram_solves_equal_each_gram_alone():
    rng = np.random.default_rng(8)
    diag, a_h_rhs = _tier_stack(rng)
    order = [0, 1, 2, 3, 0, 1]   # solvable Grams around the others
    diag, a_h_rhs = diag[order], a_h_rhs[order]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, refused = diagonal_solves(diag, a_h_rhs)
    assert list(refused) == [1, 2, 3, 5]
    solvable = [i not in refused for i in range(len(order))]
    for i in range(len(order)):
        alone, alone_solvable = _alone(diag, a_h_rhs, i)
        assert alone_solvable == solvable[i]
        if solvable[i]:
            assert np.array_equal(x[i], alone)


def test_stacked_gram_solves_route_each_gram_on_its_own():
    # a stack mixing every outcome: each Gram's decision is its own, and a
    # solvable Gram's solution has the bits of its Gram alone and of the
    # plain division, which the product with the diagonal's reciprocals
    # reproduces
    rng = np.random.default_rng(10)
    diag, a_h_rhs = _tier_stack(rng)
    order = [1, 0, 2, 0, 3, 1]
    diag, a_h_rhs = diag[order], a_h_rhs[order]
    x, refused = diagonal_solves(diag, a_h_rhs)
    assert list(refused) == [i for i, j in enumerate(order) if j != 0]
    for i in (1, 3):
        assert np.array_equal(x[i], _alone(diag, a_h_rhs, i)[0])
        assert np.array_equal(x[i], a_h_rhs[i] / diag[i][:, None])


def _excess_bound(rho):
    # ||a (x - x*)||^2 / ||a x*||^2 of the division on a Gram S (I + E) S
    # with ||E||_2 <= rho
    return rho * rho * (1.0 + rho) / (1.0 - rho)


def _joint_regressor(psi, x_d, z):
    # [KR(1, X_d^T) | KR(Psi, Z^T)], the sweep's joint-step regressor, and
    # its Gram diagonal from factor norms
    b, k_d = len(psi), len(x_d)
    a = np.hstack([khatri_rao(np.ones((b, k_d)), x_d.T), khatri_rao(psi, z.T)])
    diag = np.concatenate([b * _col_sqnorms(x_d.T), _col_sqnorms(psi) * _col_sqnorms(z.T)])
    return a, diag


def _orthogonal_schedule(rng, family, n, d, l, k_d):
    # the known factor F ((N + D) x (N + D), F^H F = B I) and direct pilots
    # X_d (K_d x L, X_d X_d^H = c I): the DFT schedules make_schedule
    # builds, or unitary ones drawn at random, ones column first where
    # D = 1 as [1 | Psi] has
    b = n + d
    if family == "dft":
        return dft_matrix(b), dft_matrix(l)[:k_d]
    f = np.linalg.qr(crandn(rng, (b, b)))[0] * np.sqrt(b)
    if d:   # a unitary matrix whose first column is 1 / sqrt(B)
        f = np.linalg.qr(np.hstack([np.ones((b, 1)), f[:, 1:]]))[0] * np.sqrt(b)
        f[:, 0] = 1.0
    return f, np.linalg.qr(crandn(rng, (l, l)))[0][:k_d] * 10.0 ** rng.uniform(-3.0, 3.0)


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["dft", "random_unitary"]),
    n=st.integers(1, 12),
    direct=st.booleans(),
    k_d=st.integers(1, 4),
    l=st.integers(1, 6),
    m=st.integers(1, 4),
    spread_exp=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_coupling_bounds_the_scaled_off_diagonal_of_any_factor(
    family, n, direct, k_d, l, m, spread_exp, seed
):
    # the identity the ALS fit relies on: for F square with F^H F = B I
    # ([1 | Psi] with a direct block, Psi without) and direct pilots with
    # X_d X_d^H = c I, the explicit Gram of the joint regressor
    # [KR(1, X_d^T) | KR(Psi, Z^T)] and of the Z regressor KR(Psi, H_ra),
    # for random Z and H_ra with rows and columns over up to 5 decades, is
    # diagonal to rounding: its coupling, every scaled off-diagonal entry
    # |g_ij| / sqrt(g_ii g_jj), is at most (2 + q / B) B eps, F's own
    # scaled Gram allowance 2 B eps plus the rounding of an inner product of
    # length q = B L or B M
    rng = np.random.default_rng(seed)
    d = int(direct)
    k_d = min(k_d, l) if direct else 0
    f, x_d = _orthogonal_schedule(rng, family, n, d, l, k_d)
    assume(is_scaled_unitary(f) and has_orthogonal_rows(x_d))
    b, psi = len(f), f[:, d:]
    z = 10.0 ** rng.uniform(-spread_exp, 0.0, (n, 1)) * crandn(rng, (n, l))
    h_ra = 10.0 ** rng.uniform(-spread_exp, 0.0, n) * crandn(rng, (m, n))
    joint, _ = _joint_regressor(psi, x_d, z)
    for a in (joint, khatri_rao(psi, h_ra)):
        e = _scaled_off_diagonal(a.conj().T @ a)
        assert e.max(initial=0.0) <= (2 + len(a) / b) * b * EPS


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    k_d=st.integers(0, 4),
    l=st.integers(1, 6),
    spread_exp=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_division_objective_is_within_the_coupling_bound(n, k_d, l, spread_exp, seed):
    # joint-step regressors on the DFT schedules, Z rows scaled over up to
    # 5 decades.  Where the diagonal clears, the division with the diagonal
    # from factor norms exceeds the objective minimum x* (for the same
    # right-hand side a^H rhs) by ||a (x - x*)||^2 <= rho**2 (1 + rho) /
    # (1 - rho) ||a x*||^2, rho the largest row sum of the scaled
    # off-diagonal of a^H a, its coupling; the diagonal, the division and x*
    # add (rows + 4) * eps relative
    rng = np.random.default_rng(seed)
    k_d = min(k_d, l)
    b = n + 1
    psi = dft_matrix(b)[:, 1:]
    x_d = dft_matrix(l)[:k_d]
    z = 10.0 ** rng.uniform(-spread_exp, 0.0, (n, 1)) * crandn(rng, (n, l))
    a, diag = _joint_regressor(psi, x_d, z)
    rows, p = a.shape
    rhs = crandn(rng, (rows, 2))
    a_h_rhs = a.conj().T @ rhs
    x, refused = diagonal_solves(diag[None], a_h_rhs[None])
    clear = diag.min() > 2.0 * (1e-24 + _GRAM_MIN_RATIO) * diag.max()
    assert list(refused) == ([] if clear else [0])
    if not clear:
        return
    # x* from the normal equations in scaled form, (I + E) u = S^-1 a^H rhs
    gram = a.conj().T @ a
    s = np.sqrt(gram.diagonal().real)
    x_star = np.linalg.solve(gram / np.outer(s, s), a_h_rhs / s[:, None]) / s[:, None]
    rho = _scaled_off_diagonal(gram).sum(axis=1).max()
    allowed = np.sqrt(_excess_bound(rho)) + (rows + 4) * EPS
    excess = np.linalg.norm(a @ (x[0] - x_star))
    assert excess <= allowed * np.linalg.norm(a @ x_star)


def _assert_within_both_roundings(x, lu, gram):
    # x is the division and lu an LU solve of one Gram G = S (I + E) S and
    # right-hand side b.  Against the exact x* = G^-1 b, in the norm ||S .||:
    # the division is x* + S^-1 E S x* to within its rounding, so
    # ||S (x - x*)|| <= rho ||S x*|| + eps (1 + rho) ||S x*||, rho = ||E||_2
    # <= the largest row sum of |E|.  LU (GEPP, which pivots on no such G:
    # its off-diagonal is at most rho times the diagonal it meets) has
    # backward error |dG| <= gamma |L||U|, gamma = 3 p eps for complex
    # arithmetic, and |L||U| = S (I + |E| + O(rho**2)) S, so
    # ||S (lu - x*)|| <= gamma (1 + rho + rho**2) / (1 - rho) ||S lu||
    p = len(gram)
    s = np.sqrt(gram.diagonal().real)
    rho = _scaled_off_diagonal(gram).sum(axis=1).max()
    gamma = 3 * p * EPS
    lu_err = gamma * (1 + rho + rho * rho) / (1 - rho)
    div_err = (rho + EPS * (1 + rho)) * (1 + lu_err)
    scaled_lu = np.linalg.norm(s[:, None] * lu)
    assert np.linalg.norm(s[:, None] * (x - lu)) <= (div_err + lu_err) * scaled_lu


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(0, 4),
    l=st.integers(1, 5),
    k_d=st.integers(0, 4),
    family=st.sampled_from(["dft_sweep", "orthogonal"]),
    cond_exp=st.floats(0.0, 5.0),
    spread_exp=st.floats(0.0, 5.0),
    tol_exp=st.floats(-12.0, -2.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=5, extra=0, l=1, k_d=0, family="orthogonal", cond_exp=1e-09, spread_exp=0.0,
         tol_exp=-2.0, seed=1)
def test_division_and_lu_agree_within_both_roundings(
    n, extra, l, k_d, family, cond_exp, spread_exp, tol_exp, seed
):
    # the joint sweep regressor on the DFT schedules, Z rows scaled over up
    # to 5 decades, or orthogonal columns scaled to cond(a) up to 1e5: a
    # solvable Gram agrees with the LU solve of the same Gram and
    # right-hand side within the rounding of both; a refused one has an
    # eigenvalue ratio at most twice (tol**2 + the floor), to rounding
    rng = np.random.default_rng(seed)
    tol = 10.0**tol_exp
    if family == "orthogonal":
        a = _scaled_columns(rng, n + extra, n, 10.0**-cond_exp)
    else:
        z = 10.0 ** rng.uniform(-spread_exp, 0.0, (n, 1)) * crandn(rng, (n, l))
        a, _ = _joint_regressor(dft_matrix(n + 1)[:, 1:], dft_matrix(l)[: min(k_d, l)], z)
    rhs = crandn(rng, (a.shape[0], 2))
    gram, a_h_rhs = a.conj().T @ a, a.conj().T @ rhs
    x, refused = diagonal_solves(gram.diagonal().real[None], a_h_rhs[None], tol)
    if not len(refused):
        _assert_within_both_roundings(x[0], np.linalg.solve(gram, a_h_rhs), gram)
    else:
        eigs = np.linalg.eigvalsh(gram)
        assert eigs[0] <= 2.0 * (tol * tol + _GRAM_MIN_RATIO) * eigs[-1] * (1 + 1e-6)


@pytest.mark.parametrize("ratio_over_threshold, certified", [(0.75, False), (1.5, False), (2.5, True)])
def test_certificate_needs_a_factor_2_margin(ratio_over_threshold, certified):
    # orthonormal Psi columns make every Gram of KR(Psi, Z^T) diag(||z_n||^2)
    # up to rounding, so its diagonal shows its eigenvalues; they clear it
    # for the division only beyond twice the floor, and below that the
    # Gram is refused
    rng = np.random.default_rng(7)
    threshold = 1e-24 + _GRAM_MIN_RATIO
    psi = _with_singular_value_ratio(rng, 5, 3, 1.0)
    z = crandn(rng, (3, 4))
    z *= (np.sqrt([1.0, 0.5, ratio_over_threshold * threshold]) / np.linalg.norm(z, axis=1))[:, None]
    a = khatri_rao(psi, z.T)
    rhs = crandn(rng, (20, 2))
    gram, a_h_rhs = a.conj().T @ a, a.conj().T @ rhs
    x, refused = diagonal_solves(gram.diagonal().real[None], a_h_rhs[None])
    assert list(refused) == ([] if certified else [0])
    if certified:
        _assert_within_both_roundings(x[0], np.linalg.solve(gram, a_h_rhs), gram)


BAD_DIAGONALS = {
    "nan": [np.nan, 1.0],
    "inf": [np.inf, 1.0],
    "zero": [0.0, 0.0],
    "zero_entry": [0.0, 1.0],
    "cond_1e20": [1.0, 1e-20],
}


@pytest.mark.parametrize("name", sorted(BAD_DIAGONALS))
def test_bad_diagonals_never_take_the_division(name):
    # alone or beside a Gram that is solved, a Gram whose diagonal does not
    # clear, a zero, NaN or inf entry included, is refused without a numpy
    # warning
    diag = np.array([BAD_DIAGONALS[name], [1.0, 2.0]])
    a_h_rhs = np.ones((2, 2, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, refused = diagonal_solves(diag, a_h_rhs)
        _, alone_solvable = _alone(diag, a_h_rhs, 0)
    assert list(refused) == [0] and not alone_solvable
    assert np.array_equal(x[1], [[1.0], [0.5]])


def test_gram_solve_falls_back_on_a_non_finite_or_zero_gram():
    # a zero or NaN regressor: the division refuses its Gram without a
    # warning, and pinv_left, the explicit update a refused Gram would fall
    # back on, cannot solve it either, so refusing loses no solution
    a = np.zeros((4, 2), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, solvable = _solve_via_gram(a, np.ones((4, 1)))
    assert not solvable
    with pytest.raises(SingularMatrixError, match="pinv_left of 4x2"):
        pinv_left(a)
    a = np.full((4, 2), np.nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, solvable = _solve_via_gram(a, np.ones((4, 1)))
    assert not solvable
    with pytest.raises(np.linalg.LinAlgError):
        pinv_left(a)


def test_an_inf_gram_goes_to_the_regression_without_a_warning():
    # an inf on the diagonal fails min > floor * max before any division:
    # the Gram of a regressor with an inf column is refused, raising no
    # warning, while a finite Gram beside it is divided; its regression
    # is left to pinv_left, which gives it no finite solution either
    a = np.array([[np.inf, 0.0], [0.0, 1.0], [0.0, 0.0]])
    diag = np.stack([_col_sqnorms(a), [1.0, 2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, refused = diagonal_solves(diag, np.ones((2, 2, 1)))
    assert list(refused) == [0] and np.array_equal(x[1], [[1.0], [0.5]])
    assert not np.isfinite(pinv_left(a)).any()


@pytest.mark.parametrize("n", [1, 2, 25, 26, 257, 1024, 1025])
def test_is_scaled_unitary_passes_the_dft(n):
    # the DFT of every size the schedules use, and of a large RIS
    assert is_scaled_unitary(dft_matrix(n))


def test_is_scaled_unitary_refuses_what_is_not_a_square_scaled_unitary():
    rng = np.random.default_rng(11)
    moved = dft_matrix(26)
    moved[13, -1] += 1e-10
    for f in (np.exp(2j * np.pi * rng.random((26, 26))),   # random unit-modulus
              dft_matrix(28)[:, :26],                      # tall DFT columns
              moved,                                       # one entry moved by 1e-10
              np.ones((4, 4)), np.zeros((3, 3)), np.full((2, 2), np.nan)):
        assert not is_scaled_unitary(f)


@pytest.mark.parametrize("snr_db", [-3100.0, -300.0, 0.0, 30.0])
def test_has_orthogonal_rows_passes_dft_pilots_at_any_power_without_a_warning(snr_db):
    # the pilot rows sqrt(P) DFT(L)[:K] have X X^H = L P I; at -3100 dB,
    # P = 1e-310 is subnormal, and dividing by the largest entry first keeps
    # the Gram away from it
    power = 10.0 ** (snr_db / 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, l in ((1, 1), (2, 2), (3, 8), (8, 8), (8, 64)):
            assert has_orthogonal_rows(np.sqrt(power) * dft_matrix(l)[:k])


def test_has_orthogonal_rows_refuses_other_pilots():
    rng = np.random.default_rng(12)
    x = dft_matrix(8)[:3]
    unequal = x * np.array([[1.0], [1.0], [2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (crandn(rng, (3, 8)), np.tile(x[:1], (3, 1)), unequal, np.zeros((3, 8)),
                    np.where(np.arange(8) == 2, np.nan, x), np.where(np.arange(8) == 2, np.inf, x)):
            assert not has_orthogonal_rows(bad)
    assert has_orthogonal_rows(np.empty((0, 8)))   # no direct block


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


def test_crandn_moments():
    rng = np.random.default_rng(6)
    samples = crandn(rng, 200000)
    assert abs(np.mean(samples)) < 0.01
    assert abs(np.mean(np.abs(samples) ** 2) - 1.0) < 0.01
