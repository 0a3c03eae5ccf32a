"""Error metrics and analytic operation counts.

NMSE throughout is squared-Frobenius error over squared-Frobenius truth.
The aggregate metric stacks the direct channel with the Khatri-Rao cascaded
parameters, where the diagonal scaling ambiguity cancels on its own.  The
row-wise helpers score a stack of G pairs along a leading axis, each row
reduced by one BLAS dot of its own (tensor_ops.sqnorms), so a row's score
is the one it gets alone, whatever else is in the stack; nmse and
aggregate_vector_nmse are their stack-of-one case.
"""

from dataclasses import dataclass

import numpy as np

from .tensor_ops import sqnorms


def row_sqnorms(stack):
    """Squared Frobenius norm of each row stack[g] of a stack."""
    stack = np.ascontiguousarray(stack, dtype=complex)
    return sqnorms(stack.reshape(len(stack), -1))


def row_nmse(h_hat, h, den):
    """||h[g] - h_hat[g]||_F^2 / den[g] per row, with den = row_sqnorms(h) formed once.

    A zero den gives inf or NaN (under the caller's np.errstate), not an error.
    """
    return row_sqnorms(h - h_hat) / den


def nmse(h_hat, h):
    """||h - h_hat||_F^2 / ||h||_F^2."""
    h_hat = np.asarray(h_hat)
    h = np.asarray(h)
    if h_hat.shape != h.shape:
        raise ValueError(f"shape mismatch: {h_hat.shape} vs {h.shape}")
    den = row_sqnorms(h[None])
    if den[0] == 0.0:
        raise ValueError("reference has zero norm")
    return float(row_nmse(h_hat[None], h[None], den)[0])


def parameter_stack(h_ua, h_ra, h_ur):
    """Each row's stacked parameter vector, for channel stacks (G, M, K), (G, M, N), (G, N, K).

    Row g is [vec(direct); vec(user->RIS rows (x) RIS->AP columns)],
    column-major: as a C-ordered (N+1, K, M) block, antenna fastest, then
    user, then [direct | RIS element], the layout ls_baseline's theta has.
    """
    g, m, k = h_ua.shape
    n = h_ra.shape[2]
    theta = np.empty((g, n + 1, k, m), dtype=np.result_type(h_ua, h_ra, h_ur))
    theta[:, 0] = h_ua.transpose(0, 2, 1)
    np.multiply(h_ur[..., None], h_ra.transpose(0, 2, 1)[:, :, None, :], out=theta[:, 1:])
    return theta.reshape(g, -1)


def stacked_parameter_vector(h_ua, h_ra, h_ur):
    """[vec(direct); vec(user->RIS rows (x) RIS->AP columns)], column-major."""
    return parameter_stack(h_ua[None], h_ra[None], h_ur[None])[0]


def aggregate_vector_nmse(est, truth):
    """NMSE of the stacked parameter vector against the truth-derived one.

    Decoupled estimates are stacked through the Khatri-Rao product first;
    a parameter-vector estimate (theta) is compared as is.
    """
    reference = stacked_parameter_vector(truth.h_ua, truth.h_ra, truth.h_ur)
    if est.theta is not None:
        return nmse(est.theta, reference)
    if est.h_ua is None or est.h_ra is None or est.h_ur is None:
        raise ValueError("aggregate_vector_nmse needs all three estimates or theta")
    return nmse(stacked_parameter_vector(est.h_ua, est.h_ra, est.h_ur), reference)


@dataclass
class ComplexityTally:
    """Analytic complex-operation counts for one method, split by update."""

    method: str
    one_time: dict
    per_iteration: dict

    @property
    def per_iteration_total(self):
        return sum(self.per_iteration.values())

    @property
    def one_time_total(self):
        return sum(self.one_time.values())

    def total(self, iterations):
        return self.one_time_total + iterations * self.per_iteration_total


def complexity_formula(method, dims):
    """Per-update analytic operation counts for a method at the given dimensions."""
    m, k, n, l = dims.m_ap, dims.k_users, dims.n_ris, dims.pilot_len
    if method == "two_stage":
        b = dims.blocks(method)
        lp = dims.off_stage_len
        return ComplexityTally(
            method=method,
            one_time={"h_ua_stage1": m * k * lp},
            per_iteration={
                "h_ra_iter": n**3 + n**2 * b * l + n * b * l * (b * l + m + 1),
                "z_iter": n**3 + n**2 * m * l + n * m * l * (m * l + b + 1),
            },
        )
    if method == "e_als":
        b = dims.blocks(method)
        j = n + k
        return ComplexityTally(
            method=method,
            one_time={},
            per_iteration={
                "h_joint_iter": j**3 + j**2 * b * l + j * (b * l + m + 1) * b * l,
                "z_eals_iter": n**3
                + n**2 * b * m
                + n * b * m * (b * m + l + 1)
                + b * m * (k + k * l + l),
            },
        )
    raise ValueError(f"unknown method {method!r}, expected 'two_stage' or 'e_als'")
