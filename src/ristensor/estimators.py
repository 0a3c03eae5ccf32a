"""Channel estimators for the RIS-assisted uplink.

Three approaches over the same training frame:

* two_stage_estimate — LS on the RIS-OFF stage for the direct path, then
  alternating LS on the direct-path-removed tensor for the RIS-path factors:
  the e_als sweep with its direct block emptied.
* e_als_estimate — joint alternating LS that refits the direct path and the
  RIS->AP factor together every sweep, using the all-blocks frame.
* ls_baseline — one stacked linear LS solve for the vectorized direct and
  cascaded parameters, with no factor decoupling.

All alternating updates are exact conditional LS steps, so the frame-fit
residual recorded in residual_trace is non-increasing sweep over sweep.
Each update's regressor is a Khatri-Rao product, so it is solved through
the small Gram matrix built as a Hadamard product of factor Grams, with
right-hand sides from the frame contracted once with the known phase
schedule (tensor_ops.certified_gram_solve, which certifies each Gram from
its own entries): the regressor itself is formed only when its SVD must
decide singularity.  Every estimator reports a frame holding NaN or inf as
a failed estimate before any solve.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .tensor_ops import (
    SingularMatrixError,
    certified_gram_solve,
    crandn,
    khatri_rao,
    pinv_left,  # unused here, but perfbench/spans.py wraps this name
    pinv_right,
    pinv_with_ratio,
    unfold_mode1,
    unfold_mode2,
)
from .validation import check_field_types


@dataclass
class EstimatorConfig:
    max_iters: int = 20
    conv_threshold: float = 1e-8   # on squared relative change per factor
    pinv_tol: float = 1e-12
    init_seed: int = 0             # used when no generator is passed in

    def __post_init__(self):
        check_field_types(self)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.conv_threshold <= 0:
            raise ValueError("conv_threshold must be positive")
        if not 0 <= self.pinv_tol < 1:
            raise ValueError("pinv_tol must be in [0, 1)")


@dataclass
class ChannelEstimate:
    """Result of one estimator call; op_count tallies complex multiply-accumulates."""

    h_ua: np.ndarray = None
    h_ur: np.ndarray = None
    h_ra: np.ndarray = None
    theta: np.ndarray = None        # stacked parameter vector (ls_baseline only)
    iterations: int = 0
    converged: bool = False
    op_count: int = 0
    residual_trace: tuple = ()      # squared frame-fit residual after each sweep
    failed: bool = False
    failure_iteration: int = None
    failure_reason: str = ""
    scaling_fallback_cols: tuple = ()   # columns resolve_scaling left unscaled

    @property
    def cascade(self):
        return self.h_ra @ self.h_ur


def _sqnorm(a):
    return float(np.real(np.vdot(a, a)))


def _small_change(delta, current, threshold):
    # squared relative change against the current iterate; a vanishing
    # denominator counts as converged
    den = _sqnorm(current)
    return den < 1e-300 or _sqnorm(delta) <= threshold * den


def _pinv_cost(short, long):
    # Gram-convention multiply-accumulate count for a pseudoinverse whose
    # short side is `short`: forming the Gram matrix plus inverting it
    return short * short * long + short**3


_NON_FINITE = "non-finite frame"


def _all_finite(*frames):
    return all(np.all(np.isfinite(f)) for f in frames)


def _failure(err, iteration, ops, trace):
    return ChannelEstimate(
        iterations=iteration,
        converged=False,
        op_count=ops,
        residual_trace=tuple(trace),
        failed=True,
        failure_iteration=iteration,
        failure_reason=str(err),
    )


def ls_direct_path(v, x_bar, tol=1e-12):
    """LS estimate of the direct channel from the RIS-OFF stage: V @ pinv_right(X_bar)."""
    v = np.asarray(v)
    x_bar = np.asarray(x_bar)
    if v.shape[1] != x_bar.shape[1]:
        raise ValueError(f"OFF-stage length mismatch: {v.shape} vs pilots {x_bar.shape}")
    return v @ pinv_right(x_bar, tol)


def _alternating_fit(y, sched, direct_pilots, cfg, rng):
    """Alternating LS over the frame y with a direct block of pilots X_d.

    Per sweep: one Gram solve refits the direct and RIS->AP channels
    together against the stacked regressor [direct block | RIS block], then
    one Gram solve refits the effective pilot-domain factor Z from the
    mode-2 unfolding with the direct contribution removed.  Both regressors
    are Khatri-Rao products, KR(A, B)^H KR(A, B) = (A^H A) o (B^H B), so
    each Gram is built from small factor Grams: (K_d+N)^2 for the joint step,
    N^2 for Z.  Their right-hand sides come from the frame contracted once
    with Psi^H along the blocks, W[m, l, n] = sum_b conj(Psi[b, n]) Y[m, l, b]
    (the MTTKRP of CP-ALS, since Psi is known), so neither regressor is
    formed for its solve.
    Each Gram is certified from its own Gershgorin discs
    (tensor_ops.certified_gram_solve), which clear every Gram of the DFT
    schedules the harness builds; only an uncertified Gram costs
    eigenvalues, and only a Gram that then fails forms its regressor.
    Stops when the squared relative change of every factor drops to
    conv_threshold, or after max_iters sweeps (converged=False, not an
    error).  The user->RIS channel is recovered from Z on exit.  A 0 x L
    X_d empties the direct block: h_ua is then M x 0, counts as converged,
    and the sweep is the RIS-path fit.  A non-finite frame is a failed
    estimate before any solve.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.init_seed)
    y = np.asarray(y)
    if not _all_finite(y):
        return _failure(_NON_FINITE, 0, 0, [])
    m, l, b = y.shape
    psi = sched.ris_phases
    n = psi.shape[1]
    x = sched.pilots
    k = x.shape[0]
    k_d = direct_pilots.shape[0]
    p = k_d + n
    tol = cfg.pinv_tol

    # sweep-invariant: W as (N, M, L), the frame as (B, M, L), Psi^H Psi,
    # 1^T Psi, and the direct block's Gram B X_d* X_d^T and right-hand side
    # X_d* (sum_b Y_b)^T
    w = np.ascontiguousarray((y @ psi.conj()).transpose(2, 0, 1))
    y_blocks = y.transpose(2, 0, 1)
    psi_gram = psi.conj().T @ psi
    psi_sum = psi.sum(axis=0)
    xd_conj = direct_pilots.conj()
    gram = np.empty((p, p), dtype=complex)
    gram[:k_d, :k_d] = b * (xd_conj @ direct_pilots.T)
    rhs = np.empty((p, m), dtype=complex)
    rhs[:k_d] = xd_conj @ y.sum(axis=2).T
    ops = m * l * b * n + n * n * b + b * n + k_d * k_d * l + m * l * b + k_d * l * m

    def joint_regression():
        # [KR(1, X_d^T) | KR(Psi, Z^T)] against the mode-1 unfolding
        ones = np.ones((b, k_d))
        reg = np.hstack([khatri_rao(ones, direct_pilots.T), khatri_rao(psi, z.T)])
        return reg, unfold_mode1(y).T

    def z_regression():
        # KR(Psi, H_ra) against the mode-2 unfolding less (1 (x) H_ua) X_d
        direct = np.tile(h_ua, (b, 1)) @ direct_pilots
        return khatri_rao(psi, h_ra), unfold_mode2(y).T - direct

    h_ua = crandn(rng, (m, k_d))
    h_ra = crandn(rng, (m, n))
    z = crandn(rng, (n, k)) @ x
    trace = []
    converged = False
    it = 0
    try:
        for it in range(1, cfg.max_iters + 1):
            prev = (h_ua, h_ra, z)

            # joint step: Gram blocks (1^T Psi) o (X_d* Z^T) and
            # (Psi^H Psi) o (Z* Z^T); RIS rows sum_l conj(z[n, l]) W[n, :, l]
            cross = psi_sum * (xd_conj @ z.T)
            gram[:k_d, k_d:] = cross
            gram[k_d:, :k_d] = cross.conj().T
            gram[k_d:, k_d:] = psi_gram * (z.conj() @ z.T)
            rhs[k_d:] = (w @ z.conj()[:, :, None])[:, :, 0]
            joint = certified_gram_solve(gram, rhs, joint_regression, tol).T
            h_ua, h_ra = joint[:, :k_d], joint[:, k_d:]
            # factor Grams, Hadamard products, right-hand side, disc sums,
            # LU factorization, triangular solves
            ops += p * n * l + p * n + n * l * m + p * p + p**3 + p * p * m

            # Z step against KR(Psi, H_ra), Gram (Psi^H Psi) o (H_ra^H H_ra),
            # right-hand side sum_m conj(h_ra[m, n]) W[n, m, :] less the
            # direct term conj(1^T Psi) o (H_ra^H H_ua X_d)
            ra_gram = h_ra.conj().T @ h_ra
            direct = psi_sum.conj()[:, None] * ((h_ra.conj().T @ h_ua) @ direct_pilots)
            z_rhs = (h_ra.conj().T[:, None, :] @ w)[:, 0, :] - direct
            z = certified_gram_solve(psi_gram * ra_gram, z_rhs, z_regression, tol)
            # factor Gram, Hadamard product, right-hand side, direct term,
            # disc sums, LU factorization, triangular solves
            ops += n * n * m + n * n + n * l * m + n * m * k_d + n * k_d * l + n * l
            ops += n * n + n**3 + n * n * l

            # squared frame-fit residual from the model frame itself, whose RIS
            # term is KR(Psi, H_ra) Z; a Gram expansion would cancel
            model = ((h_ra * psi[:, None, :]).reshape(b * m, n) @ z).reshape(b, m, l)
            trace.append(_sqnorm(y_blocks - model - h_ua @ direct_pilots))
            ops += b * m * n + b * m * n * l + m * k_d * l + m * l * b
            if all(
                _small_change(new - old, new, cfg.conv_threshold)
                for new, old in zip((h_ua, h_ra, z), prev)
            ):
                converged = True
                break
        h_ur = z @ pinv_right(x, tol)
        ops += _pinv_cost(k, l) + n * l * k
    except np.linalg.LinAlgError as err:
        return _failure(err, it, ops, trace)

    return ChannelEstimate(
        h_ua=h_ua,
        h_ur=h_ur,
        h_ra=h_ra,
        iterations=it,
        converged=converged,
        op_count=ops,
        residual_trace=tuple(trace),
    )


def als_ris(q, sched, cfg, rng=None):
    """Alternating LS fit of the RIS-path factors on a direct-path-removed tensor.

    The joint sweep of e_als_estimate with the direct block left empty.
    """
    no_direct = np.empty((0, sched.pilots.shape[1]))
    return dataclasses.replace(_alternating_fit(q, sched, no_direct, cfg, rng), h_ua=None)


def two_stage_estimate(recv, sched, cfg, rng=None):
    """RIS OFF-ON estimator: direct path from the OFF stage, RIS path by als_ris.

    The estimated direct contribution is subtracted from every block before
    the alternating fit, so its estimation error lands in the stage-2 noise.
    """
    if recv.off_stage is None:
        raise ValueError("two_stage_estimate needs the RIS-OFF stage matrix")
    if not _all_finite(recv.off_stage, recv.tensor):
        return _failure(_NON_FINITE, 0, 0, [])
    m, l, _ = recv.tensor.shape
    k, l_off = sched.off_pilots.shape
    try:
        h_ua = ls_direct_path(recv.off_stage, sched.off_pilots, cfg.pinv_tol)
    except np.linalg.LinAlgError as err:
        return _failure(err, 0, 0, [])
    ops = _pinv_cost(k, l_off) + m * l_off * k

    q = recv.tensor - (h_ua @ sched.pilots)[:, :, None]
    ops += m * k * l

    result = als_ris(q, sched, cfg, rng)
    return dataclasses.replace(result, h_ua=h_ua, op_count=result.op_count + ops)


def e_als_estimate(recv, sched, cfg, rng=None):
    """Joint alternating estimator over the full frame.

    The direct channel is refit together with the RIS->AP factor every sweep,
    its regressor block built from the frame's own pilots.
    """
    b, n = sched.ris_phases.shape
    k, l = sched.pilots.shape
    if b * l < n + k:
        raise ValueError(f"joint fit needs B*L >= N+K, got {b * l} < {n + k}")
    return _alternating_fit(recv.tensor, sched, sched.pilots, cfg, rng)


class StackedLsSolver:
    """Cached left pseudoinverse of the stacked training regressor for ls_baseline.

    The regressor is kron(kron([1 | Psi], X^T), I_M) — block rows b, pilot
    columns l, antennas m — so its pseudoinverse is the Kronecker product of
    the two small factor pseudoinverses, and solve applies them as mode
    products on the (M, L, B) frame without forming either product.  The
    singular-value ratio of the whole regressor is the product of the
    factors' ratios (I_M contributes 1), and that product is what pinv_tol
    bounds.
    """

    def __init__(self, sched, m, tol=1e-12):
        x = sched.pilots
        psi = sched.ris_phases
        k, l = x.shape
        b, n = psi.shape
        rows = m * l * b
        cols = m * k * (n + 1)
        if rows < cols:
            raise ValueError(f"stacked LS needs M*L*B >= M*K*(N+1), got {rows} < {cols}")
        p_phase, phase_ratio = pinv_with_ratio(np.hstack([np.ones((b, 1)), psi]))
        p_pilot, pilot_ratio = pinv_with_ratio(x.T)
        # a factor with fewer rows than columns cannot have full column rank
        ratio = phase_ratio * pilot_ratio if b >= n + 1 and l >= k else 0.0
        if not (ratio > 0.0 and ratio >= tol):
            raise SingularMatrixError(
                f"stacked LS regressor {rows}x{cols}: "
                f"singular value ratio {ratio:.3e} below tol {tol:.1e}"
            )
        self.rows = rows
        self.cols = cols
        self.p_phase = p_phase      # (N+1, B)
        self.p_pilot = p_pilot      # (K, L)
        # block mode product, then pilot mode product
        self.apply_ops = m * l * b * (n + 1) + m * k * l * (n + 1)

    def solve(self, recv):
        # theta[m, k, j] = sum_{l, b} P_pilot[k, l] P_phase[j, b] Y[m, l, b],
        # flattened antenna fastest, then user, then [direct | RIS element]
        y = np.asarray(recv.tensor)
        theta = self.p_pilot @ (y @ self.p_phase.T)
        return theta.reshape(-1, order="F")


def ls_baseline(recv, sched, cfg, solver=None):
    """Stacked LS over theta = [vec(direct); vec(cascaded parameters)].

    Returns the parameter vector only: the cascaded block is the Khatri-Rao
    stacking of per-user cascaded matrices and is not decoupled into separate
    RIS-path factors.  A non-finite frame, or a theta that overflows, is
    reported as a failed estimate.
    """
    if not _all_finite(recv.tensor):
        return _failure(_NON_FINITE, 0, 0, [])
    try:
        if solver is None:
            solver = StackedLsSolver(sched, recv.tensor.shape[0], cfg.pinv_tol)
        theta = solver.solve(recv)
    except np.linalg.LinAlgError as err:
        return _failure(err, 0, 0, [])
    if not np.all(np.isfinite(theta)):
        return _failure("non-finite parameter estimate", 0, solver.apply_ops, [])
    return ChannelEstimate(
        theta=theta,
        iterations=0,
        converged=True,
        op_count=solver.apply_ops,
    )


def resolve_scaling(est, truth):
    """Undo the per-column diagonal ambiguity of the RIS-path factor pair.

    Each column of the RIS->AP estimate is rescaled by its least-squares fit
    against the true column, lambda_n = <truth_n, est_n> / ||truth_n||^2, and
    the inverse scale is applied to the user->RIS rows, so the cascade is
    unchanged. A single-entry reference would do the same job in principle,
    but turns into noise whenever the true reference entry happens to be
    small; the column fit has no such weak spot. Columns with no usable
    scale (zero truth column, or an estimate orthogonal to it) are left
    alone and recorded.
    """
    if est.h_ra is None or est.h_ur is None:
        raise ValueError("resolve_scaling needs decoupled RIS-path estimates")
    h_ra_true = truth.h_ra
    n = h_ra_true.shape[1]
    lam = np.ones(n, dtype=complex)
    skipped = []
    for col in range(n):
        den = float(np.real(np.vdot(h_ra_true[:, col], h_ra_true[:, col])))
        num = np.vdot(h_ra_true[:, col], est.h_ra[:, col])
        if den == 0.0 or num == 0:
            skipped.append(col)
            continue
        lam[col] = num / den
    return dataclasses.replace(
        est,
        h_ra=est.h_ra / lam[None, :],
        h_ur=est.h_ur * lam[:, None],
        scaling_fallback_cols=tuple(skipped),
    )
