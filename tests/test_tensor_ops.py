import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ristensor.tensor_ops
from ristensor.tensor_ops import (
    _GRAM_MIN_RATIO,
    ShapeError,
    SingularMatrixError,
    certified_gram_solves,
    crandn,
    dft_matrix,
    khatri_rao,
    khatri_rao_coupling,
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


# no known rows: khatri_rao_coupling(a, NO_ROWS) bounds a's own Gram
NO_ROWS = np.empty((0, 1))
EPS = np.finfo(float).eps
SQRT_EPS = np.sqrt(EPS)


def _col_sqnorms(a):
    return (np.abs(a) ** 2).sum(axis=0)


def _solve_via_gram(a, rhs, tol=1e-12):
    # certified_gram_solves on a stack of one explicit regressor, certified
    # by its own Gram, raising its error; returns (x, divided)
    x, divided, errors = certified_gram_solves(
        _col_sqnorms(a)[None], (a.conj().T @ rhs)[None], lambda i: (a, rhs),
        khatri_rao_coupling(a, NO_ROWS), tol,
    )
    if errors:
        raise errors[0]
    return x[0], divided[0]


@settings(max_examples=100, deadline=None)
@given(
    p=st.integers(1, 6),
    extra=st.integers(0, 6),
    r=st.integers(1, 4),
    cond_exp=st.floats(0.0, 4.0),
    consistent=st.booleans(),
    orthogonal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_solve_matches_pinv_up_to_cond_1e4(
    p, extra, r, cond_exp, consistent, orthogonal, seed
):
    # orthogonal columns scaled up to cond 1e3.8 are divided, a dense a goes
    # to pinv_left unless its coupling rho is at most sqrt(eps); either way x
    # is pinv(a) rhs to within eps * cond(a)**2, for a consistent rhs too,
    # and a division to within rho * cond(a) more: x - x* = S^-1 E S x*
    rng = np.random.default_rng(seed)
    cond = 10.0**cond_exp
    make = _scaled_columns if orthogonal else _with_singular_value_ratio
    a = make(rng, p + extra, p, 1.0 / cond)
    rhs = a @ crandn(rng, (p, r)) if consistent else crandn(rng, (p + extra, r))
    expected = np.linalg.pinv(a) @ rhs
    x, divided = _solve_via_gram(a, rhs)
    if orthogonal and cond_exp <= 3.8:
        assert divided
    rtol = 100 * EPS * cond**2 + (2 * khatri_rao_coupling(a, NO_ROWS) * cond if divided else 0.0)
    assert np.linalg.norm(x - expected) <= rtol * np.linalg.norm(expected)


@settings(max_examples=50, deadline=None)
@given(
    cols=st.integers(2, 6),
    extra=st.integers(0, 4),
    cond_exp=st.floats(4.1, 11.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_solve_is_pinv_left_beyond_cond_1e4(cols, extra, cond_exp, seed):
    # a Gram diagonal to rounding whose diagonal shows an eigenvalue ratio
    # below twice the threshold is pinv_left's
    rng = np.random.default_rng(seed)
    a = _scaled_columns(rng, cols + extra, cols, 10.0**-cond_exp)
    rhs = crandn(rng, (cols + extra, 2))
    x, divided = _solve_via_gram(a, rhs)
    assert not divided and np.array_equal(x, pinv_left(a) @ rhs)


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
    orthogonal=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_solve_raises_exactly_when_pinv_left_does(
    cols, extra, tol_exp, ratio_exp, near_tol, orthogonal, seed
):
    # sigma_min / sigma_max from 1e-2 down to 1e-14, some within 2.3e-6
    # relative of tol; the division needs twice tol**2 on the diagonal, so
    # near tol the SVD always decides
    rng = np.random.default_rng(seed)
    tol = 10.0**tol_exp
    ratio = tol * 10.0**near_tol if near_tol is not None else 10.0**ratio_exp
    make = _scaled_columns if orthogonal else _with_singular_value_ratio
    a = make(rng, cols + extra, cols, ratio)
    rhs = crandn(rng, (cols + extra, 2))
    by_gram = _raises_singular(lambda: _solve_via_gram(a, rhs, tol))
    by_svd = _raises_singular(lambda: pinv_left(a, tol))
    assert by_gram == by_svd


def test_gram_solve_falls_back_on_a_non_finite_or_zero_gram():
    a = np.zeros((4, 2), dtype=complex)
    with pytest.raises(SingularMatrixError, match="pinv_left of 4x2"):
        _solve_via_gram(a, np.ones((4, 1)))
    a = np.full((4, 2), np.nan)
    with pytest.raises(np.linalg.LinAlgError):
        _solve_via_gram(a, np.ones((4, 1)))


def test_an_inf_gram_goes_to_the_regression_without_a_warning():
    # an inf on the diagonal fails min > threshold * max before any division
    regression = mock.Mock(return_value=(np.eye(2), np.ones((2, 1))))
    diag = np.array([[np.inf, 1.0]])
    x, divided, errors = certified_gram_solves(diag, np.ones((1, 2, 1)), regression, 0.0)
    regression.assert_called_once_with(0)
    assert not divided[0] and not errors and np.array_equal(x[0], np.ones((2, 1)))


def _tier_stack(rng, p=4, rows=9):
    # regressors q diag(s) on one orthonormal q, so q's own coupling (of
    # rounding size) certifies them all; their diagonals take each route:
    # well conditioned (divided), cond 1e6 (pinv_left solves), a zero column
    # and a NaN column (pinv_left raises)
    q, _ = np.linalg.qr(crandn(rng, (rows, p)))
    scales = ([1.0, 2.0, 3.0, 4.0], [1.0, 1e-2, 1e-4, 1e-6], [1.0, 2.0, 0.0, 4.0],
              [1.0, np.nan, 3.0, 4.0])
    regressors = [q * np.array(s) for s in scales]
    rhs = [crandn(rng, (rows, 2)) for _ in regressors]
    diag = np.stack([_col_sqnorms(a) for a in regressors])
    a_h_rhs = np.stack([a.conj().T @ r for a, r in zip(regressors, rhs)])
    return regressors, rhs, diag, a_h_rhs, khatri_rao_coupling(q, NO_ROWS)


def _alone(diag, a_h_rhs, i, regression, coupling):
    # certified_gram_solves on Gram i in a stack of one
    x, divided, errors = certified_gram_solves(
        diag[i : i + 1], a_h_rhs[i : i + 1], lambda _: regression(i), coupling
    )
    return x[0], divided[0], errors


def test_stacked_gram_solves_equal_each_gram_alone():
    rng = np.random.default_rng(8)
    regressors, rhs, diag, a_h_rhs, coupling = _tier_stack(rng)
    assert coupling <= SQRT_EPS
    order = [0, 1, 2, 3, 0, 1]   # divided Grams around the others

    def regression(i):
        return regressors[order[i]], rhs[order[i]]

    diag, a_h_rhs = diag[order], a_h_rhs[order]
    x, divided, errors = certified_gram_solves(diag, a_h_rhs, regression, coupling)
    assert list(divided) == [True, False, False, False, True, False]
    assert list(errors) == [2, 3] and isinstance(errors[2], SingularMatrixError)
    for i, j in enumerate(order):
        alone, alone_divided, alone_errors = _alone(diag, a_h_rhs, i, regression, coupling)
        assert alone_divided == divided[i] and list(alone_errors) == ([0] if j in (2, 3) else [])
        if j not in (2, 3):
            assert np.array_equal(x[i], alone)
        if j == 1:
            assert np.array_equal(x[i], pinv_left(regressors[j]) @ rhs[j])


def test_stacked_gram_solves_route_each_gram_on_its_own():
    # a stack mixing every route: the Grams with a clear diagonal are
    # divided, every other (a zero or NaN entry included) forms its
    # regression for pinv_left, and each solution has the bits of its Gram
    # alone and of the plain division, which the product with the
    # diagonal's reciprocals reproduces; a coupling above sqrt(eps), or
    # NaN, sends every Gram there
    rng = np.random.default_rng(10)
    regressors, rhs, diag, a_h_rhs, coupling = _tier_stack(rng)
    order = [1, 0, 2, 0, 3, 1]
    diag, a_h_rhs = diag[order], a_h_rhs[order]
    regression = mock.Mock(side_effect=lambda i: (regressors[order[i]], rhs[order[i]]))
    x, divided, errors = certified_gram_solves(diag, a_h_rhs, regression, coupling)
    assert list(divided) == [j == 0 for j in order]
    assert [call.args[0] for call in regression.call_args_list] == [0, 2, 4, 5]
    assert list(errors) == [2, 4]
    for i, j in enumerate(order):
        if j in (0, 1):
            assert np.array_equal(x[i], _alone(diag, a_h_rhs, i, regression, coupling)[0])
        if divided[i]:
            assert np.array_equal(x[i], a_h_rhs[i] / diag[i][:, None])
        if j == 1:
            assert np.array_equal(x[i], pinv_left(regressors[j]) @ rhs[j])
    for uncertified in (1.01 * SQRT_EPS, np.nan):
        regression.reset_mock()
        x, divided, errors = certified_gram_solves(diag, a_h_rhs, regression, uncertified)
        assert not divided.any() and regression.call_count == len(order)
        assert list(errors) == [2, 4]
        for i, j in enumerate(order):
            if j in (0, 1):
                assert np.array_equal(x[i], pinv_left(regressors[j]) @ rhs[j])


def _excess_bound(rho):
    # ||a (x - x*)||^2 / ||a x*||^2 of the division on a Gram S (I + E) S
    # with ||E||_2 <= rho
    return rho * rho * (1.0 + rho) / (1.0 - rho)


def _joint_regressor(psi, x_d, z):
    # [KR(1, X_d^T) | KR(Psi, Z^T)], the sweep's joint-step regressor, its
    # known factor [1 .. 1 | Psi], and its Gram diagonal from factor norms
    b, k_d = len(psi), len(x_d)
    a = np.hstack([khatri_rao(np.ones((b, k_d)), x_d.T), khatri_rao(psi, z.T)])
    left = np.hstack([np.ones((b, k_d)), psi])
    diag = np.concatenate([b * _col_sqnorms(x_d.T), _col_sqnorms(psi) * _col_sqnorms(z.T)])
    return a, left, diag


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 8),
    k_d=st.integers(0, 4),
    l=st.integers(1, 6),
    extra=st.integers(0, 4),
    pert_exp=st.floats(-16.0, -9.0),
    spread_exp=st.floats(0.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_division_objective_is_within_the_coupling_bound(
    n, k_d, l, extra, pert_exp, spread_exp, seed
):
    # joint-step regressors on DFT rows and pilots perturbed by 1e-16 to
    # 1e-9, Z rows scaled over up to 5 decades.  Where the schedule's
    # coupling rho is at most sqrt(eps) and the diagonal clears, the
    # division with the diagonal from factor norms exceeds the objective
    # minimum x* (for the same right-hand side a^H rhs) by ||a (x - x*)||^2
    # <= rho**2 (1 + rho) / (1 - rho) ||a x*||^2.  Rounding allowance: each
    # scaled entry of a computed Gram (of a, or of the known factor in the
    # certificate) is an inner product of length rows = B L, off by at most
    # rows * eps (Cauchy-Schwarz), so rho by p of them; the diagonal, the
    # division and x* add (rows + 4) * eps relative.  Elsewhere the
    # regression solves
    rng = np.random.default_rng(seed)
    k_d = min(k_d, l)
    b = n + 1 + extra
    pert = 10.0**pert_exp
    psi = dft_matrix(b)[:, 1 : n + 1] + pert * crandn(rng, (b, n))
    x_d = dft_matrix(l)[:k_d] + pert * crandn(rng, (k_d, l))
    z = 10.0 ** rng.uniform(-spread_exp, 0.0, (n, 1)) * crandn(rng, (n, l))
    a, left, diag = _joint_regressor(psi, x_d, z)
    rows, p = a.shape
    rhs = crandn(rng, (rows, 2))
    a_h_rhs = a.conj().T @ rhs
    rho = khatri_rao_coupling(left, x_d)
    regression = mock.Mock(return_value=(a, rhs))
    x, divided, errors = certified_gram_solves(diag[None], a_h_rhs[None], regression, rho)
    clear = diag.min() > 2.0 * (1e-24 + _GRAM_MIN_RATIO) * diag.max()
    assert list(divided) == [bool(rho <= SQRT_EPS and clear)] and not errors
    if not divided[0]:
        assert np.array_equal(x[0], pinv_left(a) @ rhs)
        return
    # x* from the normal equations in scaled form, (I + E) u = S^-1 a^H rhs
    gram = a.conj().T @ a
    s = np.sqrt(gram.diagonal().real)
    x_star = np.linalg.solve(gram / np.outer(s, s), a_h_rhs / s[:, None]) / s[:, None]
    rho_rounded = rho + p * rows * EPS
    allowed = np.sqrt(_excess_bound(rho_rounded)) + (rows + 4) * EPS
    excess = np.linalg.norm(a @ (x[0] - x_star))
    assert excess <= allowed * np.linalg.norm(a @ x_star)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 6),
    k_d=st.integers(0, 3),
    l=st.integers(1, 5),
    m=st.integers(1, 4),
    extra=st.integers(0, 3),
    same_rows=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_coupling_bounds_the_scaled_off_diagonal_of_any_factor(
    n, k_d, l, m, extra, same_rows, seed
):
    # a random Psi and direct pilots X_d, and random factors Z and H_ra:
    # the largest row sum of the scaled off-diagonal |E| of the joint Gram
    # (of [KR(1, X_d^T) | KR(Psi, Z^T)]) and of the Z Gram (of
    # KR(Psi, H_ra)) is at most the schedule's coupling rho, up to rounding;
    # with no direct block and Z rows all alike, F's scaled entries are all
    # 1 and rho is attained
    rng = np.random.default_rng(seed)
    b = n + k_d + extra
    psi = crandn(rng, (b, n))
    x_d = crandn(rng, (k_d, l))
    z = np.repeat(crandn(rng, (1, l)), n, axis=0) if same_rows else crandn(rng, (n, l))
    z *= 10.0 ** rng.uniform(-3.0, 0.0, (n, 1))
    a, left, _ = _joint_regressor(psi, x_d, z)
    rho = khatri_rao_coupling(left, x_d)
    row_sums = []
    for reg in (a, khatri_rao(psi, crandn(rng, (m, n)))):
        gram = reg.conj().T @ reg
        s = np.sqrt(gram.diagonal().real)
        e = np.abs(gram) / np.outer(s, s)
        np.fill_diagonal(e, 0.0)
        row_sums.append(e.sum(axis=1).max())
    assert max(row_sums) <= rho * (1 + 1e-12) + 1e-13
    if same_rows and k_d == 0:
        assert rho <= row_sums[0] * (1 + 1e-12) + 1e-13


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
    e = np.abs(gram) / np.outer(s, s)
    np.fill_diagonal(e, 0.0)
    rho = e.sum(axis=1).max()
    gamma = 3 * p * EPS
    lu_err = gamma * (1 + rho + rho * rho) / (1 - rho)
    div_err = (rho + EPS * (1 + rho)) * (1 + lu_err)
    scaled_lu = np.linalg.norm(s[:, None] * lu)
    assert np.linalg.norm(s[:, None] * (x - lu)) <= (div_err + lu_err) * scaled_lu


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
    family=st.sampled_from(["dft_sweep", "random_sweep", "dense"]),
    cond_exp=st.floats(0.0, 5.0),
    spread_exp=st.floats(0.0, 5.0),
    tol_exp=st.floats(-12.0, -2.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=5, extra=0, l=1, k_d=0, family="dense", cond_exp=1e-09, spread_exp=0.0,
         tol_exp=-2.0, seed=1)
def test_division_and_lu_agree_within_both_roundings(
    n, extra, l, k_d, family, cond_exp, spread_exp, tol_exp, seed
):
    # the joint sweep regressor on DFT rows as the harness builds them (the
    # schedule certifies every Gram) or on a random Psi with cond(Psi) up
    # to 1e5, Z rows scaled over up to 5 decades; or a dense a with cond(a)
    # up to 1e5, certified by its own Gram.  A divided Gram agrees with the
    # LU solve of the same Gram and right-hand side within the rounding of
    # both; every other Gram is pinv_left's, or singular with it
    rng = np.random.default_rng(seed)
    b = n + 1 + extra
    tol = 10.0**tol_exp
    if family == "dense":
        a = _with_singular_value_ratio(rng, n + extra, n, 10.0**-cond_exp)
        coupling = khatri_rao_coupling(a, NO_ROWS)
    else:
        if family == "dft_sweep":
            psi = dft_matrix(b)[:, 1 : n + 1]
            x_d = dft_matrix(l)[: min(k_d, l)]
        else:
            psi = _with_singular_value_ratio(rng, b, n, 10.0**-cond_exp)
            x_d = crandn(rng, (k_d, l))
        z = 10.0 ** rng.uniform(-spread_exp, 0.0, (n, 1)) * crandn(rng, (n, l))
        a, left, _ = _joint_regressor(psi, x_d, z)
        coupling = khatri_rao_coupling(left, x_d)
    rhs = crandn(rng, (a.shape[0], 2))
    gram, a_h_rhs = a.conj().T @ a, a.conj().T @ rhs

    def solve():
        x, divided, errors = certified_gram_solves(
            gram.diagonal().real[None], a_h_rhs[None], lambda i: (a, rhs), coupling, tol
        )
        if errors:
            raise errors[0]
        return x[0], divided[0]

    outcome = _outcome(solve)
    if outcome != "singular" and outcome[1]:
        _assert_within_both_roundings(outcome[0], np.linalg.solve(gram, a_h_rhs), gram)
    else:
        by_svd = _outcome(lambda: pinv_left(a, tol) @ rhs)
        assert np.array_equal(outcome if outcome == "singular" else outcome[0], by_svd)


@pytest.mark.parametrize("ratio_over_threshold, certified", [(0.75, False), (1.5, False), (2.5, True)])
def test_certificate_needs_a_factor_2_margin(ratio_over_threshold, certified):
    # orthonormal Psi columns certify every Gram of KR(Psi, Z^T), which is
    # then diag(||z_n||^2) up to rounding, so its diagonal shows its
    # eigenvalues; they clear it for the division only beyond twice the
    # threshold, and below that it goes to pinv_left
    rng = np.random.default_rng(7)
    threshold = 1e-24 + _GRAM_MIN_RATIO
    psi = _with_singular_value_ratio(rng, 5, 3, 1.0)
    z = crandn(rng, (3, 4))
    z *= (np.sqrt([1.0, 0.5, ratio_over_threshold * threshold]) / np.linalg.norm(z, axis=1))[:, None]
    a = khatri_rao(psi, z.T)
    rhs = crandn(rng, (20, 2))
    gram, a_h_rhs = a.conj().T @ a, a.conj().T @ rhs
    coupling = khatri_rao_coupling(psi, np.empty((0, 4)))
    assert coupling <= SQRT_EPS

    regression = mock.Mock(return_value=(a, rhs))
    x, divided, errors = certified_gram_solves(
        gram.diagonal().real[None], a_h_rhs[None], regression, coupling
    )
    assert list(divided) == [certified] and not errors
    assert regression.call_count == (0 if certified else 1)
    if certified:
        _assert_within_both_roundings(x[0], np.linalg.solve(gram, a_h_rhs), gram)
    else:
        assert np.array_equal(x[0], pinv_left(a) @ rhs)


BAD_DIAGONALS = {
    "nan": [np.nan, 1.0],
    "inf": [np.inf, 1.0],
    "zero": [0.0, 0.0],
    "zero_entry": [0.0, 1.0],
    "cond_1e20": [1.0, 1e-20],
}


@pytest.mark.parametrize("name", sorted(BAD_DIAGONALS))
def test_bad_diagonals_never_take_the_division(name):
    # alone or beside a Gram that is divided, a Gram whose diagonal does not
    # clear goes to its regression, without a numpy warning, whatever the
    # coupling
    diag = np.array([BAD_DIAGONALS[name], [1.0, 2.0]])
    a_h_rhs = np.ones((2, 2, 1))
    regression = mock.Mock(return_value=(np.eye(2), np.ones((2, 1))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, divided, errors = certified_gram_solves(diag, a_h_rhs, regression, 0.0)
        regression.assert_called_once_with(0)
        alone, alone_divided, _ = _alone(diag, a_h_rhs, 0, regression, 0.0)
    assert list(divided) == [False, True] and not alone_divided and not errors
    assert np.array_equal(x[0], alone) and np.array_equal(x[0], np.ones((2, 1)))
    assert np.array_equal(x[1], [[1.0], [0.5]])


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
