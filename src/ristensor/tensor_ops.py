"""Dense complex linear-algebra primitives shared across the package.

Third-order arrays are numpy ndarrays of shape (M, L, B): B frontal slices,
each M x L.  vec() is column-major everywhere, so unfoldings and stacking use
Fortran-order reshapes.  Least-squares solves against structured regressors
go through their small Gram matrices (certified_gram_solve), with the SVD
pseudoinverse as the one place that decides singularity.
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
# as normal equations, i.e. cond(a) up to 1e4.  Normal equations lose about
# eps * cond(a)**2 where the SVD of a loses about eps * cond(a), so below this
# the SVD is the more accurate solve; the Gram's own rounding (about 1e3 * eps
# relative to lambda_max) lies far below it, so no case the SVD would call
# singular can pass.
_GRAM_MIN_RATIO = 1e-8


def hadamard_gram_bounds(lam_a, diag_b):
    """Schur's bounds (lo, hi) on the eigenvalues of A o B.

    lam_a holds the ascending eigenvalues of a positive semidefinite A and
    diag_b the (real) diagonal of a positive semidefinite B:
    lambda_min(A o B) >= lambda_min(A) * min_i b_ii and
    lambda_max(A o B) <= lambda_max(A) * max_i b_ii.
    """
    return lam_a[0] * diag_b.min(), lam_a[-1] * diag_b.max()


def block_gram_bounds(lam_d, bounds_r, c):
    """Weyl's bounds (lo, hi) on the eigenvalues of [[D, C], [C^H, R]].

    lam_d holds D's ascending eigenvalues (possibly none), bounds_r brackets
    R's, and ||C||_F bounds the spectral norm of the off-diagonal part.
    """
    lo, hi = bounds_r
    if lam_d.size:
        lo, hi = min(lam_d[0], lo), max(lam_d[-1], hi)
    c_norm = np.linalg.norm(c)
    return lo - c_norm, hi + c_norm


def certified_gram_solve(gram, a_h_rhs, regression, tol=1e-12, bounds=None):
    """pinv_left(a, tol) @ rhs, solved as gram @ x = a_h_rhs.

    The caller builds gram = a^H a and a_h_rhs = a^H rhs from structure (for
    a Khatri-Rao a, a Hadamard product of factor Grams), and regression is
    a zero-argument callable returning (a, rhs), called only when the Gram
    path cannot decide.  The Gram is LU-solved when its eigenvalue ratio
    lambda_min / lambda_max exceeds tol**2 + _GRAM_MIN_RATIO, i.e. a is well
    above the singular tolerance.  bounds (lo, hi), when given, bracket the
    Gram's eigenvalues: lo > 2 * threshold * hi certifies the ratio with a
    margin far above rounding, so no eigenvalues are computed.  Otherwise
    the ratio comes from eigvalsh, and below the threshold (or on a
    non-finite Gram) pinv_left decides, raising SingularMatrixError when
    sigma_min / sigma_max < tol, and solves.
    """
    threshold = tol * tol + _GRAM_MIN_RATIO
    # a NaN bound compares False; no ratio is formed, so nothing divides by 0
    if bounds is not None and bounds[0] > 2.0 * threshold * bounds[1]:
        return np.linalg.solve(gram, a_h_rhs)
    if np.all(np.isfinite(gram)):
        lam = np.linalg.eigvalsh(gram)
        if lam[-1] > 0.0 and lam[0] / lam[-1] > threshold:
            return np.linalg.solve(gram, a_h_rhs)
    a, rhs = regression()
    return pinv_left(a, tol) @ rhs


def gram_solve(a, rhs, gram, tol=1e-12):
    """pinv_left(a, tol) @ rhs through the Gram matrix gram = a^H a of an explicit a."""
    return certified_gram_solve(gram, a.conj().T @ rhs, lambda: (a, rhs), tol)


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
