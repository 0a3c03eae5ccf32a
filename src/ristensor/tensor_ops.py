"""Dense complex linear-algebra primitives shared across the package.

Third-order arrays are numpy ndarrays of shape (M, L, B): B frontal slices,
each M x L.  vec() is column-major everywhere, so unfoldings and stacking use
Fortran-order reshapes.  Least-squares solves against structured regressors
start from their small Gram matrices (certified_gram_solves): a Gram whose
Gershgorin discs certify it and that is diagonal to rounding is solved by
one Jacobi step, and every other goes to the SVD pseudoinverse, the one
place that decides singularity.
"""

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class SingularMatrixError(np.linalg.LinAlgError):
    """Pseudoinverse requested for an effectively rank-deficient matrix."""


def khatri_rao(a, b):
    """Column-wise Kronecker product of a (I x R) and b (J x R) -> (I*J x R)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"khatri_rao expects matrices, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"khatri_rao column count mismatch: {a.shape} vs {b.shape}")
    (i, r), j = a.shape, b.shape[0]
    return (a[:, None, :] * b[None, :, :]).reshape(i * j, r)


def unfold_mode1(t):
    """Mode-1 unfolding of (M, L, B): frontal slices side by side, M x (L*B)."""
    t = np.asarray(t)
    if t.ndim != 3:
        raise ShapeError(f"unfold_mode1 expects a third-order array, got shape {t.shape}")
    m, l, b = t.shape
    return t.reshape(m, l * b, order="F")


def unfold_mode2(t):
    """Mode-2 unfolding of (M, L, B): transposed slices side by side, L x (M*B)."""
    t = np.asarray(t)
    if t.ndim != 3:
        raise ShapeError(f"unfold_mode2 expects a third-order array, got shape {t.shape}")
    m, l, b = t.shape
    return t.transpose(1, 0, 2).reshape(l, m * b, order="F")


def pinv_with_ratio(a):
    """SVD pseudoinverse of a matrix and its singular value ratio sigma_min/sigma_max.

    An all-zero matrix has ratio 0 and no pseudoinverse (None).
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[0] == 0.0:
        return None, 0.0
    return (vh.conj().T / s) @ u.conj().T, s[-1] / s[0]


# Smallest eigenvalue ratio lambda_min / lambda_max of a Gram a^H a solved
# from its own entries (its discs must show twice this), i.e. cond(a) up to
# 1e4.  A Gram solve loses about eps * cond(a)**2 where the SVD of a loses
# about eps * cond(a), so below this the SVD is the more accurate solve; the
# Gram's own rounding (about 1e3 * eps relative to lambda_max) lies far below
# it, so no case the SVD would call singular can pass.
_GRAM_MIN_RATIO = 1e-8


# Largest dominance ratio rho = max_i r_i / g_ii, r_i = sum_{j != i} |g_ij|,
# of a Gram solved by one Jacobi step: the step leaves an error of at most
# rho**2 <= eps relative to the solution, the rounding of an LU solve.
_JACOBI_MAX_RATIO = np.sqrt(np.finfo(float).eps)


def _gram_discs(gram):
    """Gershgorin bounds (lo, hi) on a Hermitian Gram's eigenvalues, and its dominance.

    Every eigenvalue lies in some disc g_ii -+ r_i, r_i = sum_{j != i} |g_ij|.
    With row sums s_i = |g_ii| + r_i, lo = min(g_ii - (s_i - g_ii)) and
    hi = max(s_i) bracket the union of the discs.  dominant says that every
    s_i - g_ii <= _JACOBI_MAX_RATIO * g_ii, i.e. rho <= sqrt(eps), tested
    without a division; it means nothing for a Gram whose discs do not clear
    (a zero Gram is "dominant").  A NaN or inf entry makes hi NaN or inf and
    lo NaN, so no disc is formed as inf - inf.  A stack of Grams (..., p, p)
    gives one (lo, hi, dominant) per Gram, each from the same row sums as
    that Gram alone.
    """
    rows = np.abs(gram).sum(axis=-1)
    hi = rows.max(axis=-1)
    diag = gram.diagonal(axis1=-2, axis2=-1).real.copy()   # contiguous: faster below
    finite = hi < np.inf
    all_finite = finite.all()
    if not all_finite:
        rows = np.where(finite[..., None], rows, 0.0)
        diag = np.where(finite[..., None], diag, 0.0)
    off = rows - diag
    lo = (diag - off).min(axis=-1)
    dominant = (off <= _JACOBI_MAX_RATIO * diag).all(axis=-1)
    if not all_finite:
        lo = np.where(finite, lo, np.nan)
    return lo, hi, dominant


def _jacobi_step(gram, a_h_rhs):
    # diagonal solve x0 = b / d and one Jacobi refinement x0 + (b - G x0) / d,
    # d the real diagonal; elementwise but for one matmul per Gram, so the
    # bits of a Gram do not depend on the stack it is in
    d = gram.diagonal(axis1=-2, axis2=-1).real[..., None]
    x = a_h_rhs / d
    step = gram @ x
    np.subtract(a_h_rhs, step, out=step)
    step /= d
    x += step
    return x


def certified_gram_solves(grams, a_h_rhs, regression, tol=1e-12):
    """pinv_left(a_i, tol) @ rhs_i for each Gram of a stack, solved from its Gram when it can.

    grams (T, p, p) and a_h_rhs (T, p, r) stack T independent solves, built
    by the caller from structure as gram_i = a_i^H a_i and a_h_rhs_i = a_i^H
    rhs_i (for a Khatri-Rao a, a Hadamard product of factor Grams);
    regression(i) returns (a_i, rhs_i), called only for a Gram that is not
    solved from its own entries.  The discs are computed for the whole stack
    and route each Gram on its own.  A Gram is solved by the diagonal solve
    plus one Jacobi step when its eigenvalue ratio lambda_min / lambda_max
    exceeds twice threshold = tol**2 + _GRAM_MIN_RATIO by its Gershgorin
    discs, lo > 2 * threshold * hi, a margin far above rounding, and it is
    diagonal to rounding, rho = max_i r_i / g_ii <= sqrt(eps): the step's
    error |x - gram^-1 a_h_rhs|_inf <= rho**2 |x|_inf <= eps |x|_inf is that
    of an LU solve.  Every other Gram, a non-finite one included, goes to
    pinv_left on its regression, which raises SingularMatrixError when
    sigma_min / sigma_max < tol, and solves.  Returns (x, jacobi, errors):
    x (T, p, r) with solution i in x[i], a boolean array saying which Grams
    took the Jacobi step, and a dict from the index of each Gram that raised
    np.linalg.LinAlgError to the error (its x[i] is undefined).  Each
    solution, and each decision, is that of the Gram in a stack of one.
    """
    lo, hi, dominant = _gram_discs(grams)
    # a NaN lo compares False
    jacobi = (lo > 2.0 * (tol * tol + _GRAM_MIN_RATIO) * hi) & dominant
    errors = {}
    if jacobi.all():
        return _jacobi_step(grams, a_h_rhs), jacobi, errors
    x = np.empty(a_h_rhs.shape, dtype=np.result_type(grams, a_h_rhs))
    if jacobi.any():
        x[jacobi] = _jacobi_step(grams[jacobi], a_h_rhs[jacobi])
    for i in np.flatnonzero(~jacobi):
        a, rhs = regression(i)
        try:
            x[i] = pinv_left(a, tol) @ rhs
        except np.linalg.LinAlgError as err:
            errors[i] = err
    return x, jacobi, errors


def _svd_pinv(a, tol, side):
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"pinv_{side} expects a matrix, got shape {a.shape}")
    pinv, ratio = pinv_with_ratio(a)
    if ratio == 0.0 or ratio < tol:
        raise SingularMatrixError(
            f"pinv_{side} of {a.shape[0]}x{a.shape[1]} matrix: "
            f"singular value ratio {ratio:.3e} below tol {tol:.1e}"
        )
    return pinv


def pinv_right(a, tol=1e-12):
    """Right pseudoinverse A^H (A A^H)^-1, via SVD. a @ pinv_right(a) = I for full row rank."""
    return _svd_pinv(a, tol, "right")


def pinv_left(a, tol=1e-12):
    """Left pseudoinverse (A^H A)^-1 A^H, via SVD. pinv_left(a) @ a = I for full column rank."""
    return _svd_pinv(a, tol, "left")


def dft_matrix(n):
    """n x n DFT matrix, entry (j, k) = exp(-2i*pi*j*k/n); unnormalized, F^H F = n*I."""
    if n < 1:
        raise ShapeError("dft_matrix needs n >= 1")
    return np.exp(-2j * np.pi * np.arange(n) / n)[:, None] ** np.arange(n)


def crandn(rng, shape):
    """Circularly-symmetric complex normal CN(0, 1) samples."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
