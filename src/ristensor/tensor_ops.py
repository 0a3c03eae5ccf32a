"""Dense complex linear-algebra primitives shared across the package.

Third-order arrays are numpy ndarrays of shape (M, L, B): B frontal slices,
each M x L.  vec() is column-major everywhere, so unfoldings and stacking use
Fortran-order reshapes.  On the orthogonal schedules (is_scaled_unitary,
has_orthogonal_rows) every Gram of a Khatri-Rao regressor the ALS sweep
takes is diagonal to rounding, so each of its least-squares solves is one
division by the diagonal (diagonal_solves), which also decides whether the
solve is singular.  pinv_right and pinv_left are SVD pseudoinverses: of the
pilots, and of explicit regressors.
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

    A matrix with an exactly zero singular value, an all-zero one included,
    has ratio 0 and no pseudoinverse (None).
    """
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    if s[-1] == 0.0:
        return None, 0.0
    return (vh.conj().T / s) @ u.conj().T, s[-1] / s[0]


# Floor on the diagonal ratio min(d) / max(d) of a Gram solved by division:
# the diagonal must show twice this (plus tol**2).  On a Gram diagonal to
# rounding, G = S (I + E) S with ||E||_2 = rho of order eps, the division's
# forward error, from x - x* = S^-1 E S x*, is ||x - x*||_inf <= rho
# sqrt(max d / min d) ||x*||_inf, which this floor caps at about 7e3 rho,
# against about eps * cond(a) for the SVD.  Rounding lies far below it, so
# no Gram the SVD would call singular can pass.
_GRAM_MIN_RATIO = 1e-8


def _is_scaled_identity(gram, c, length):
    # whether gram / c is I within 2 length eps entrywise, length the inner
    # dimension of the product that formed gram
    gram = gram / c
    gram[np.diag_indices(len(gram))] -= 1.0
    return bool(np.abs(gram).max(initial=0.0) <= 2.0 * length * np.finfo(float).eps)


def is_scaled_unitary(f):
    """Whether f is square with f^H f = B I to rounding, B its row count.

    The scaled Gram f^H f / B must be within 2 B eps of I entrywise.
    dft_matrix forms each entry as a power, with up to about 4 B eps of
    rounding, so the DFT schedules' scaled Grams miss I by up to about
    0.4 B eps (measured to B = 2048), and an entry moved by more than about
    2 B^2 eps (3e-11 at B = 257) shows.
    """
    b, n = f.shape
    return b == n and _is_scaled_identity(f.conj().T @ f, b, b)


def has_orthogonal_rows(x):
    """Whether the rows of x (K, L) are orthogonal with one norm, x x^H = c I with c > 0.

    The scaled Gram x x^H / c, c its mean diagonal, must be within 2 L eps
    of I entrywise, as in is_scaled_unitary.  x is first divided by its
    largest magnitude, so a pilot power near the ends of the float range
    (1e-310, say) neither under- nor overflows and raises no warning; a
    zero, NaN or inf entry fails.  No rows (K = 0) pass.
    """
    k, l = x.shape
    if not k:
        return True
    top = np.abs(x).max()
    if not 0.0 < top < np.inf:
        return False
    x = x / top
    gram = x @ x.conj().T
    return _is_scaled_identity(gram, gram.trace().real / k, l)


def diagonal_solves(diag, a_h_rhs, tol=1e-12):
    """Solutions of a stack of Grams diagonal to rounding, by division, and which are refused.

    diag (T, p) holds the real diagonals of T Grams G_i = a_i^H a_i that the
    caller knows to be diagonal to rounding, and a_h_rhs (T, p, r) their
    right-hand sides a_i^H rhs_i.  Returns x (T, p, r), x[i] = a_h_rhs[i] /
    diag[i], and the indices of the Grams whose diagonal does not show an
    eigenvalue ratio min / max above 2 * (tol**2 + _GRAM_MIN_RATIO), as one
    with a zero or non-finite entry never does; their x[i] is undefined,
    and they raise no warning.  Each solution and decision is that of the
    Gram in a stack of one.  A complex divided by a real is its product
    with the real's reciprocal, bit for bit, so one reciprocal per diagonal
    entry needs no broadcast divisor.
    """
    floor = 2.0 * (tol * tol + _GRAM_MIN_RATIO)
    refused = ()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # when the stack's least entry clears its greatest, every Gram's
        # does (a NaN compares False)
        if not diag.min(initial=np.inf) > floor * diag.max(initial=0.0):
            refused = np.flatnonzero(~(diag.min(axis=-1) > floor * diag.max(axis=-1)))
        return a_h_rhs * (1.0 / diag)[..., None], refused


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
