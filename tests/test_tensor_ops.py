import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ristensor.tensor_ops
from ristensor.tensor_ops import (
    _GRAM_MIN_RATIO,
    ShapeError,
    SingularMatrixError,
    _gram_discs,
    certified_gram_solves,
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


def _solve_via_gram(a, rhs, tol=1e-12, discs=True):
    # certified_gram_solves on a stack of one explicit regressor, raising its
    # error; discs=False sends the Gram to pinv_left whatever its discs say
    def solve():
        x, _, errors = certified_gram_solves(
            (a.conj().T @ a)[None], (a.conj().T @ rhs)[None], lambda i: (a, rhs), tol
        )
        if errors:
            raise errors[0]
        return x[0]

    if discs:
        return solve()
    uncleared = (np.zeros(1), np.ones(1), np.zeros(1, dtype=bool))
    with mock.patch.object(ristensor.tensor_ops, "_gram_discs", return_value=uncleared):
        return solve()


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
    x = _solve_via_gram(a, rhs)
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
    assert np.array_equal(_solve_via_gram(a, rhs), pinv_left(a) @ rhs)


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
    # the row sums show the inf before any disc is formed as inf - inf
    regression = mock.Mock(return_value=(np.eye(2), np.ones((2, 1))))
    gram = np.array([[np.inf, 1.0], [1.0, 1.0]])
    x, jacobi, errors = certified_gram_solves(gram[None], np.ones((1, 2, 1)), regression)
    regression.assert_called_once_with(0)
    assert not jacobi[0] and not errors and np.array_equal(x[0], np.ones((2, 1)))


SQRT_EPS = np.sqrt(np.finfo(float).eps)


def _dominance(gram):
    # rho = max_i sum_{j != i} |g_ij| / g_ii
    diag = np.diag(gram).real
    return np.max(np.abs(gram - np.diag(np.diag(gram))).sum(axis=1) / diag)


def _assert_within_solve_rounding(got, lu, lam):
    # the Jacobi step is within rho**2 <= eps of the solution, the LU solve
    # within about p * eps * cond(G) of it
    eps = np.finfo(float).eps
    bound = 4 * len(lam) * eps * (lam[-1] / lam[0]) * np.linalg.norm(lu)
    assert np.linalg.norm(got - lu) <= bound


def _tier_stack(rng, p=4, rows=9):
    # regressors whose Grams take each route: diagonal up to rounding (cleared
    # by the discs and dominant: the Jacobi step), dense and well conditioned,
    # cond 1e6, rank deficient (pinv_left raises), and diagonal with
    # off-diagonal entries near 0.05 of it (cleared by the discs but not
    # dominant); all but the first go to pinv_left
    q, _ = np.linalg.qr(crandn(rng, (rows, p)))
    scales = np.array([1.0, 2.0, 3.0, 4.0])
    regressors = [
        q * scales,
        _with_singular_value_ratio(rng, rows, p, 0.3),
        _with_singular_value_ratio(rng, rows, p, 1e-6),
        np.hstack([q[:, :3], q[:, :1]]),
        q @ (np.diag(scales) + 0.05 * np.triu(np.ones((p, p)), 1)),
    ]
    rhs = [crandn(rng, (rows, 2)) for _ in regressors]
    grams = np.stack([a.conj().T @ a for a in regressors])
    a_h_rhs = np.stack([a.conj().T @ r for a, r in zip(regressors, rhs)])
    return regressors, rhs, grams, a_h_rhs


def _alone(grams, a_h_rhs, i, regression):
    # certified_gram_solves on Gram i in a stack of one
    x, jacobi, errors = certified_gram_solves(
        grams[i : i + 1], a_h_rhs[i : i + 1], lambda _: regression(i)
    )
    return x[0], jacobi[0], errors


def test_stacked_gram_solves_equal_each_gram_alone():
    rng = np.random.default_rng(8)
    regressors, rhs, grams, a_h_rhs = _tier_stack(rng)
    order = [0, 1, 2, 3, 0, 1]   # Jacobi Grams around the others

    def regression(i):
        return regressors[order[i]], rhs[order[i]]

    grams, a_h_rhs = grams[order], a_h_rhs[order]
    x, jacobi, errors = certified_gram_solves(grams, a_h_rhs, regression)
    assert list(jacobi) == [True, False, False, False, True, False]
    assert list(errors) == [3] and isinstance(errors[3], SingularMatrixError)
    for i, j in enumerate(order):
        alone, took_step, alone_errors = _alone(grams, a_h_rhs, i, regression)
        assert took_step == jacobi[i] and list(alone_errors) == ([0] if i == 3 else [])
        if i != 3:
            assert np.array_equal(x[i], alone)
        if j in (1, 2):
            assert np.array_equal(x[i], pinv_left(regressors[j]) @ rhs[j])


def test_stacked_gram_solves_route_each_gram_on_its_own():
    # a stack mixing every route: the dominant cleared Grams take the Jacobi
    # step, every other Gram (cleared but not dominant included) forms its
    # regression for pinv_left, and each solution has the bits of its Gram
    # alone
    rng = np.random.default_rng(10)
    regressors, rhs, grams, a_h_rhs = _tier_stack(rng)
    order = [4, 0, 1, 4, 2, 0, 3]
    grams, a_h_rhs = grams[order], a_h_rhs[order]
    regression = mock.Mock(side_effect=lambda i: (regressors[order[i]], rhs[order[i]]))
    x, jacobi, errors = certified_gram_solves(grams, a_h_rhs, regression)
    assert list(jacobi) == [j == 0 for j in order]
    assert [call.args[0] for call in regression.call_args_list] == [0, 2, 3, 4, 6]
    assert list(errors) == [6]
    for i, j in enumerate(order):
        if j != 3:
            assert np.array_equal(x[i], _alone(grams, a_h_rhs, i, regression)[0])
        if j != 0 and j != 3:
            assert np.array_equal(x[i], pinv_left(regressors[j]) @ rhs[j])


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(1, 8),
    r=st.integers(1, 4),
    spread_exp=st.floats(0.0, 6.0),
    rho_exps=st.lists(
        st.one_of(st.floats(-4.0, -0.01), st.floats(0.01, 6.8)), min_size=1, max_size=4
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_jacobi_step_runs_exactly_on_cleared_dominant_grams(p, r, spread_exp, rho_exps, seed):
    # Hermitian Grams D^1/2 (I + E) D^1/2, D spread over up to 6 decades and
    # E scaled so that rho = max_i sum_{j != i} |g_ij| / g_ii lies rho_exp
    # decades from sqrt(eps), on either side of it but 2% clear, where the
    # rounding of the row sums decides; rho <= 0.1 keeps every |e_ij| <= rho
    # and I + E definite.  A Gram takes the step (no regression) exactly
    # when its discs clear and rho <= sqrt(eps), alone or in a stack, with
    # the same bits either way and a result within the rounding of the LU;
    # every other Gram is pinv_left of its regressor a = L^H, the Cholesky
    # factor, against rhs = L^-1 a_h_rhs
    rng = np.random.default_rng(seed)
    grams = []
    for rho_exp in rho_exps:
        d = 10.0 ** rng.uniform(-spread_exp, 0.0, p)
        e = crandn(rng, (p, p))
        e = np.sqrt(d)[:, None] * (e + e.conj().T) * np.sqrt(d)[None, :]
        np.fill_diagonal(e, 0.0)
        if p > 1:
            e *= SQRT_EPS * 10.0**rho_exp / np.max(np.abs(e).sum(axis=1) / d)
        gram = e + np.diag(d)
        grams.append((gram + gram.conj().T) / 2)
    grams = np.stack(grams)
    a_h_rhs = crandn(rng, (len(grams), p, r))
    threshold = 1e-24 + _GRAM_MIN_RATIO
    expected = []
    for gram in grams:
        radii = np.abs(gram - np.diag(np.diag(gram))).sum(axis=1)
        diag = np.diag(gram).real
        cleared = np.min(diag - radii) > 2.0 * threshold * np.max(diag + radii)
        expected.append(bool(cleared and _dominance(gram) <= SQRT_EPS))
    chol = np.linalg.cholesky(grams)
    regressors = chol.conj().transpose(0, 2, 1)
    rhs = np.linalg.solve(chol, a_h_rhs)
    regression = mock.Mock(side_effect=lambda i: (regressors[i], rhs[i]))
    x, jacobi, errors = certified_gram_solves(grams, a_h_rhs, regression)
    assert list(jacobi) == expected and not errors
    called = [call.args[0] for call in regression.call_args_list]
    assert called == [i for i, took_step in enumerate(expected) if not took_step]
    for i, took_step in enumerate(expected):
        regression.reset_mock()
        alone, alone_step, _ = _alone(grams, a_h_rhs, i, regression)
        assert alone_step == took_step and regression.call_count == (0 if took_step else 1)
        assert np.array_equal(x[i], alone)
        if took_step:
            lu = np.linalg.solve(grams[i], a_h_rhs[i])
            _assert_within_solve_rounding(alone, lu, np.linalg.eigvalsh(grams[i]))
        else:
            assert np.array_equal(alone, pinv_left(regressors[i]) @ rhs[i])


BAD_GRAMS = {
    "nan": [[np.nan, 0.0], [0.0, 1.0]],
    "inf": [[np.inf, 0.0], [0.0, 1.0]],
    "zero": [[0.0, 0.0], [0.0, 0.0]],
    "zero_diagonal_entry": [[0.0, 0.0], [0.0, 1.0]],
    "rho_0_but_cond_1e20": [[1.0, 0.0], [0.0, 1e-20]],
}


@pytest.mark.parametrize("name", sorted(BAD_GRAMS))
def test_grams_the_discs_do_not_clear_never_take_the_jacobi_step(name):
    # a diagonal Gram has rho = 0, but the step needs the discs to clear
    # first; alone or beside a dominant Gram that does take it, the bad Gram
    # goes to its regression, without a numpy warning
    grams = np.array([BAD_GRAMS[name], [[1.0, 0.0], [0.0, 2.0]]])
    a_h_rhs = np.ones((2, 2, 1))
    regression = mock.Mock(return_value=(np.eye(2), np.ones((2, 1))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, jacobi, errors = certified_gram_solves(grams, a_h_rhs, regression)
        regression.assert_called_once_with(0)
        alone, alone_step, _ = _alone(grams, a_h_rhs, 0, regression)
    assert list(jacobi) == [False, True] and not alone_step and not errors
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
def test_gram_discs_bracket_the_spectrum(
    n, extra, l, k_d, family, cond_exp, spread_exp, tol_exp, seed
):
    # PSD Grams a^H a: the joint sweep Gram with direct block B X_d* X_d^T,
    # cross block (1^T Psi) o (X_d* Z^T) and RIS block (Psi^H Psi) o (Z* Z^T),
    # Z rows scaled over up to 5 decades, on DFT rows as the harness builds
    # them (diagonal up to rounding) or on a random Psi with cond(Psi) up to
    # 1e5; or a dense a with cond(a) up to 1e5
    rng = np.random.default_rng(seed)
    b = n + 1 + extra
    tol = 10.0**tol_exp
    if family == "dense":
        a = _with_singular_value_ratio(rng, n + extra, n, 10.0**-cond_exp)
    else:
        if family == "dft_sweep":
            psi = dft_matrix(b)[:, 1 : n + 1]
            x_d = dft_matrix(l)[: min(k_d, l)]
        else:
            psi = _with_singular_value_ratio(rng, b, n, 10.0**-cond_exp)
            x_d = crandn(rng, (k_d, l))
        z = 10.0 ** rng.uniform(-spread_exp, 0.0, (n, 1)) * crandn(rng, (n, l))
        a = np.hstack([khatri_rao(np.ones((b, x_d.shape[0])), x_d.T), khatri_rao(psi, z.T)])
    gram = a.conj().T @ a
    lo, hi, _ = _gram_discs(gram)
    lam = np.linalg.eigvalsh(gram)
    slack = 1e-12 * lam[-1]   # rounding of the computed spectrum
    assert lo <= lam[0] + slack
    assert hi >= lam[-1] - slack
    threshold = tol * tol + _GRAM_MIN_RATIO
    if lo > 2.0 * threshold * hi:
        # a certified Gram has the eigenvalue ratio its discs claim
        assert lam[-1] > 0.0 and lam[0] / lam[-1] > threshold
    # so the discs never change what the solve decides, nor what it returns
    # but where a cleared Gram is dominant and takes the Jacobi step
    rhs = crandn(rng, (a.shape[0], 2))
    with_discs = _outcome(lambda: _solve_via_gram(a, rhs, tol))
    without = _outcome(lambda: _solve_via_gram(a, rhs, tol, discs=False))
    if lo > 2.0 * threshold * hi and _dominance(gram) <= SQRT_EPS:
        assert isinstance(with_discs, np.ndarray) and isinstance(without, np.ndarray)
        _assert_within_solve_rounding(with_discs, without, lam)
    else:
        assert np.array_equal(with_discs, without)


@pytest.mark.parametrize("ratio_over_threshold, certified", [(0.75, False), (1.5, False), (2.5, True)])
def test_certificate_needs_a_factor_2_margin(ratio_over_threshold, certified):
    # orthonormal Psi columns make the Gram diag(||z_n||^2) up to rounding,
    # so its discs are its eigenvalues; they clear it for the Jacobi step
    # only beyond twice the threshold, and below that it goes to pinv_left
    rng = np.random.default_rng(7)
    threshold = 1e-24 + _GRAM_MIN_RATIO
    psi = _with_singular_value_ratio(rng, 5, 3, 1.0)
    z = crandn(rng, (3, 4))
    z *= (np.sqrt([1.0, 0.5, ratio_over_threshold * threshold]) / np.linalg.norm(z, axis=1))[:, None]
    a = khatri_rao(psi, z.T)
    rhs = crandn(rng, (20, 2))
    gram, a_h_rhs = a.conj().T @ a, a.conj().T @ rhs

    regression = mock.Mock(return_value=(a, rhs))
    x, jacobi, errors = certified_gram_solves(gram[None], a_h_rhs[None], regression)
    assert list(jacobi) == [certified] and not errors
    assert regression.call_count == (0 if certified else 1)
    if certified:   # and dominant: the Jacobi step
        lu = np.linalg.solve(gram, a_h_rhs)
        _assert_within_solve_rounding(x[0], lu, np.linalg.eigvalsh(gram))
    else:
        assert np.array_equal(x[0], pinv_left(a) @ rhs)


def test_crandn_moments():
    rng = np.random.default_rng(6)
    samples = crandn(rng, 200000)
    assert abs(np.mean(samples)) < 0.01
    assert abs(np.mean(np.abs(samples) ** 2) - 1.0) < 0.01
