"""Dense complex linear-algebra primitives shared across the package.

Third-order arrays are numpy ndarrays of shape (M, L, B): B frontal slices,
each M x L.  vec() is column-major everywhere, so unfoldings and stacking use
Fortran-order reshapes.  Least-squares solves against Khatri-Rao regressors
need only the diagonals of their Grams where the known factor certifies,
once per call, that every Gram it can take is diagonal to rounding
(khatri_rao_coupling): each such solve is one division, its objective
within eps of the conditional LS minimum (certified_gram_solves).  Every
other solve goes to the SVD pseudoinverse, the one place that decides
singularity.
"""

import math

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


def sqnorms(a):
    """Squared norm along the last axis of a C-contiguous complex128 (or float64) array.

    One BLAS dot per row of the float view: numpy's own reductions block a
    lone row differently from the rows of a stack, so they would make a
    row's bits depend on the rest of its stack.
    """
    v = a.view(float)
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


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


# Floor on the diagonal ratio min(d) / max(d) of a Gram a^H a solved by
# division: the diagonal must show twice this (plus tol**2).  The
# division's objective excess, at most rho**2 (1 + rho) / (1 - rho)
# ||a x*||^2, holds whatever the diagonal; its forward error, from
# x - x* = S^-1 E S x*, is ||x - x*||_inf <= rho sqrt(max d / min d)
# ||x*||_inf, which this floor caps at about 7e3 rho, against about
# eps * cond(a) for the SVD.  Rounding lies far below it, so no case the
# SVD would call singular can pass.
_GRAM_MIN_RATIO = 1e-8


# Largest coupling rho (see khatri_rao_coupling) of Grams solved by division:
# the division's objective then exceeds the LS minimum by at most
# rho**2 (1 + rho) / (1 - rho) <= about eps relative, the rounding of an LU
# solve.
_MAX_COUPLING = np.sqrt(np.finfo(float).eps)


def _scaled_magnitudes(gram):
    # |g_ij| / sqrt(g_ii g_jj)
    d = gram.diagonal().real
    return np.abs(gram) / np.sqrt(np.outer(d, d))


def khatri_rao_coupling(left, known):
    """Bound rho on the scaled off-diagonal of every Gram of a KR(left, V^T) regressor.

    left (B, p) is the known factor; V (p, L) is unknown but for its leading
    rows, known (k, L).  The Gram is G = C o F, C = left^H left and
    F = V* V^T, so with S = diag(G)^1/2 it is G = S (I + E) S where
    |E_ij| = |C_ij| / sqrt(C_ii C_jj) * |F_ij| / sqrt(F_ii F_jj).  F is PSD,
    so by Cauchy-Schwarz its scaled entry is at most 1 whatever V is, and
    between two known rows it is known exactly.  Returns the largest row
    sum of that bound on |E|, which bounds ||E||_2; so one call covers every
    Gram the regressor takes, of any V (or any sub-block of left's columns).
    A zero or non-finite column of left, or a zero known row, gives NaN or
    inf, which certifies nothing.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = _scaled_magnitudes(left.conj().T @ left)
        k = len(known)
        bound[:k, :k] *= _scaled_magnitudes(known.conj() @ known.T)
    np.fill_diagonal(bound, 0.0)
    return bound.sum(axis=1).max()


def certified_gram_solves(diag, a_h_rhs, regression, coupling, tol=1e-12):
    """pinv_left(a_i, tol) @ rhs_i for each of a stack of Grams, by division where certified.

    diag (T, p) holds the real diagonals of T Grams G_i = a_i^H a_i and
    a_h_rhs (T, p, r) their right-hand sides a_i^H rhs_i, built by the
    caller from structure; coupling is a bound rho on every Gram's scaled
    off-diagonal (khatri_rao_coupling), and regression(i) returns
    (a_i, rhs_i), called only for a Gram not solved by division.  With
    G = S (I + E) S and ||E||_2 <= rho, the division x = a_h_rhs / diag
    leaves the objective ||a x - rhs||^2 above its minimum, at x*, by
    ||a (x - x*)||^2 <= rho**2 (1 + rho) / (1 - rho) ||a x*||^2, about eps
    ||a x*||^2 for rho <= sqrt(eps); and the eigenvalue ratio of G is at
    least (1 - rho) / (1 + rho) times min(diag) / max(diag).  So a Gram is
    solved by division when rho <= sqrt(eps) and min(diag) > 2 * (tol**2 +
    _GRAM_MIN_RATIO) * max(diag), a margin far above rounding; every other
    Gram, one with a zero or non-finite diagonal entry included, goes to
    pinv_left on its regression, which raises SingularMatrixError when
    sigma_min / sigma_max < tol, and solves.  Returns (x, divided, errors):
    x (T, p, r) with solution i in x[i], a boolean array saying which Grams
    were divided, and a dict from the index of each Gram that raised
    np.linalg.LinAlgError to the error (its x[i] is undefined, for the
    caller to overwrite).  Each solution, and each decision, is that of the
    Gram in a stack of one.  A complex divided by a real is its product with
    the real's reciprocal, bit for bit, so the division multiplies by one
    reciprocal per diagonal entry, which needs no broadcast divisor.
    """
    # a NaN coupling or diagonal compares False
    threshold = 2.0 * (tol * tol + _GRAM_MIN_RATIO)
    certified = coupling <= _MAX_COUPLING
    # when the stack's least diagonal entry clears its greatest, every Gram's does
    if certified and diag.min(initial=np.inf) > threshold * diag.max(initial=0.0):
        return a_h_rhs * (1.0 / diag)[..., None], np.ones(len(diag), dtype=bool), {}
    divided = (diag.min(axis=-1) > threshold * diag.max(axis=-1)) & certified
    errors = {}
    x = np.empty(a_h_rhs.shape, dtype=np.result_type(diag, a_h_rhs))
    if divided.any():
        x[divided] = a_h_rhs[divided] * (1.0 / diag[divided])[..., None]
    for i in np.flatnonzero(~divided):
        a, rhs = regression(i)
        try:
            x[i] = pinv_left(a, tol) @ rhs
        except np.linalg.LinAlgError as err:
            errors[i] = err
    return x, divided, errors


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


def crandn_stacks(rngs, shapes):
    """One (len(rngs), *shape) stack per shape: row g holds what successive
    crandn(rngs[g], shape) calls return, bit for bit, from one call of rngs[g].

    Each generator's standard normals are cut in crandn's order (real part,
    then imaginary part, per shape) and made complex for all rows at once.
    """
    sizes = [math.prod(shape) for shape in shapes]
    draws = np.empty((len(rngs), 2 * sum(sizes)))
    for row, rng in zip(draws, rngs):
        rng.standard_normal(out=row)
    out, start = [], 0
    for shape, size in zip(shapes, sizes):
        re, im = draws[:, start:start + size], draws[:, start + size:start + 2 * size]
        out.append(((re + 1j * im) / np.sqrt(2.0)).reshape(len(rngs), *shape))
        start += 2 * size
    return out
