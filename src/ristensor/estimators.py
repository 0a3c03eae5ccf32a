"""Channel estimators for the RIS-assisted uplink.

Three approaches over the same training frame:

* two_stage_estimate — LS on the RIS-OFF stage for the direct path, then
  alternating LS on the direct-path-removed tensor for the RIS-path factors:
  the e_als sweep with its direct block emptied.
* e_als_estimate — joint alternating LS that refits the direct path and the
  RIS->AP factor together every sweep, using the all-blocks frame.
* ls_baseline — one stacked linear LS solve for the vectorized direct and
  cascaded parameters, with no factor decoupling.

The ALS estimators fit only orthogonal schedules, as make_schedule builds:
the known factor F = [1 | Psi] (Psi without a direct block) square with
F^H F = B I, and direct-block pilots with X_d X_d^H = c I.  They check this
once per call and refuse any other schedule by failing every frame with the
reason.  Under it every update's Khatri-Rao Gram is diagonal to rounding,
so each update divides its right-hand side, from the frame contracted once
with F, W = Y F*, by the Gram's diagonal from factor norms
(tensor_ops.diagonal_solves); no Gram or regressor is formed, and a
diagonal that does not clear fails its frame.  Each update's objective is
within eps of its conditional LS minimum, so the frame-fit residual in
residual_trace, ||W - B C||^2 / B, is non-increasing sweep over sweep, up
to rounding.  One filter (_finite_frames) makes every estimator report a
frame holding NaN or inf as a failed row before any solve.

Every estimator takes a ReceiveTensor of one (M, L, B) frame, or of a stack
of G frames along a leading axis, as synthesize builds a chunk's (the ALS
estimators then take G generators, or None), and returns one
ChannelEstimate stacked along G; a single frame is a stack of one
(_as_stack), whose call returns row(0).  One sweep implementation,
_alternating_fit, serves both ALS estimators on a stack of frames that
share a schedule: each frame writes its row of the estimate and leaves the
stack when it converges, fails or reaches max_iters.  ls_baseline solves
its stack with one StackedLsSolver.solve.  Each call works on its own
C-ordered copy of the stack, so its caller's arrays are never written;
every product runs per slice on slices of that one layout, so each row is
the estimate its frame gets alone, bit for bit, whatever else is in the
stack.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .tensor_ops import (
    SingularMatrixError,
    crandn_stacks,
    diagonal_solves,
    has_orthogonal_rows,
    is_scaled_unitary,
    khatri_rao,  # unused here, but perfbench/spans.py wraps this name
    pinv_left,  # unused here, but perfbench/spans.py wraps this name
    pinv_right,
    pinv_with_ratio,
    sqnorms,
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
    """One estimator call's result, stacked along G for G frames; op_count counts complex MACs."""

    h_ua: np.ndarray = None
    h_ur: np.ndarray = None
    h_ra: np.ndarray = None
    theta: np.ndarray = None        # stacked parameter vector (ls_baseline only)
    iterations: int = 0
    converged: bool = False
    op_count: int = 0
    residual_trace: tuple = ()      # squared frame-fit residual after each sweep
    failed: bool = False
    failure_reason: str = ""
    scaling_fallback_cols: tuple = ()   # columns resolve_scaling left unscaled

    @property
    def cascade(self):
        return self.h_ra @ self.h_ur

    def row(self, g):
        """Frame g's estimate, as a single-frame call returns it (no factors if it failed)."""
        failed = bool(self.failed[g])
        iterations = int(self.iterations[g])
        return ChannelEstimate(
            *(None if a is None or failed else a[g]
              for a in (self.h_ua, self.h_ur, self.h_ra, self.theta)),
            iterations=iterations,
            converged=bool(self.converged[g]),
            op_count=int(self.op_count[g]),
            # a row that failed in sweep i keeps the i - 1 residuals before it
            residual_trace=tuple(self.residual_trace[g, : max(iterations - failed, 0)].tolist()),
            failed=failed,
            failure_reason=self.failure_reason[g],
        )


def _abs2(a):
    return a.real**2 + a.imag**2


def _contracted_residuals(w, h, z, bx_d, b, out):
    # squared frame-fit residual ||Y - C F^T||^2 of each slot from its
    # contraction W = Y F* (F square, F^H F = B I, so F F^H = B I and the
    # residual is ||(Y - C F^T) F*||^2 / B = ||W - B C||^2 / B), with C's rows
    # H_ua X_d and h_ra[:, n] z_n^T and W's rows sum_b Y_b and W_n: w and out
    # are (T, D + N, M, L), D = 1 with a direct block (bx_d = B X_d) and 0
    # without; h holds [H_ua | H_ra]^T as (T, K_d + N, M)
    slots, k_d = len(w), len(bx_d)
    d = min(k_d, 1)
    np.matmul(b * h[:, k_d:, :, None], z[:, :, None], out=out[:, d:])
    if d:
        np.matmul(h[:, :k_d].transpose(0, 2, 1), bx_d, out=out[:, 0])
    np.subtract(w, out, out=out)
    return sqnorms(out.reshape(slots, -1)) / b


def _pinv_cost(short, long):
    # Gram-convention multiply-accumulate count for a pseudoinverse whose
    # short side is `short`: forming the Gram matrix plus inverting it
    return short * short * long + short**3


def _finite_frames(*stacks):
    # whether each frame holds no NaN or inf in any stack
    return np.logical_and.reduce(
        [np.isfinite(s).reshape(len(s), -1).all(axis=1) for s in stacks]
    )


def _stacked_estimate(finite, **factors):
    # the estimate of a call on len(finite) frames, whose rows it writes: a
    # frame that is not finite has failed, at iteration 0 with op_count 0,
    # and no sweep has run
    g = len(finite)
    return ChannelEstimate(
        **factors,
        iterations=np.zeros(g, dtype=int),
        converged=np.zeros(g, dtype=bool),
        op_count=np.zeros(g, dtype=int),
        residual_trace=np.empty((g, 0)),
        failed=~finite,
        failure_reason=np.where(finite, "", "non-finite frame").astype(object),
    )


def _fail(est, rows, reason):
    est.failed[rows] = True
    est.failure_reason[rows] = reason


def _as_stack(tensor, off_stage, rng):
    # one frame (M, L, B) with one generator is the stack of one; a stack
    # (G, M, L, B) takes G generators or None.  Returns the call's own
    # C-ordered copy of the tensor stack (two_stage and ls write it), the
    # OFF stages, the generators, and whether one frame came
    single = np.ndim(tensor) == 3
    if single:
        tensor, rngs = tensor[None], [rng]
        off_stage = None if off_stage is None else off_stage[None]
    else:
        if isinstance(rng, np.random.Generator):   # one generator, not a list of G
            rng = [rng]
        rngs = [None] * len(tensor) if rng is None else list(rng)
        if len(rngs) != len(tensor):
            raise ValueError(f"a stack of {len(tensor)} frames got {len(rngs)} generators")
    y = np.array(tensor, order="C")
    return y, off_stage, rngs, single


def _schedule_refusal(f, x_d):
    # why _alternating_fit refuses a schedule, or "" for one that meets its
    # premise (an empty direct block has orthogonal rows)
    if not is_scaled_unitary(f):
        return "refused schedule: its phase factor F is not square with F^H F = B I"
    if not has_orthogonal_rows(x_d):
        return "refused schedule: its direct pilots X_d do not have X_d X_d^H = c I"
    return ""


# a factor that overflows (as at a subnormal pilot power) goes on as inf or
# NaN, without a warning, to the exit, and its estimate is scored as failed
@np.errstate(over="ignore", invalid="ignore")
def _alternating_fit(stack, sched, direct_pilots, cfg, rngs):
    """Alternating LS over a C-ordered stack (G, M, L, B) of frames sharing one orthogonal schedule.

    Returns the stack's ChannelEstimate, each row equal, bit for bit, to the
    fit of its frame alone in a stack of one: every product runs per slice,
    every norm is one BLAS dot per slot or row (sqnorms) or a sum over one
    slot's row norms, and generator rngs[t] (None: default_rng(init_seed))
    draws frame t's initial H_ua, H_ra and Z in one call, the values three
    crandn calls would give.  The premise, F = [1 | Psi] (Psi without a
    direct block) square with F^H F = B I and direct pilots with
    X_d X_d^H = c I, is checked once per call; a schedule that fails it, or
    pilots X that pinv_right finds singular, fail every frame with the
    reason at iteration 0 with op_count 0, as a non-finite frame does.

    Per sweep and frame: one solve refits [H_ua | H_ra] against
    KR([1 .. 1 | Psi], [X_d; Z]^T), then one refits Z = H_ur X against
    KR(Psi, H_ra) with the direct term removed.  Each Khatri-Rao Gram is a
    Hadamard product of factor Grams, diagonal to rounding under the
    premise whatever Z and H_ra are, so each solve is one division
    (tensor_ops.diagonal_solves): its right-hand side comes from W = Y F*,
    formed once (W[n] = sum_b conj(Psi[b, n]) Y_b, the MTTKRP of CP-ALS, and
    with a direct block sum_b Y_b), and its diagonal from factor norms,
    (Psi^H Psi)_nn ||z_n||^2 or (Psi^H Psi)_nn ||h_ra[:, n]||^2 (and
    B ||x_d,k||^2 for the direct block).  A frame whose diagonal does not
    clear fails at that step with the sweep and op count it reached, its
    update taking back its previous iterate.  Each sweep's squared residual
    ||Y - C F^T||^2, C's rows H_ua X_d and h_ra[:, n] z_n^T, is
    ||W - B C||^2 / B; no stop test reads it.  At the end of each sweep a
    frame that failed, converged or ran max_iters sweeps (converged=False,
    not an error) leaves the stack; one that did not fail writes its row,
    h_ur recovered from Z by pinv_right(X).  A 0 x L X_d empties the direct
    block: h_ua is then (G, M, 0), counts as converged, and no direct-block
    product is formed.  The stack is never written.
    """
    g, m, l, b = stack.shape
    psi = sched.ris_phases
    n = psi.shape[1]
    x = sched.pilots
    k = x.shape[0]
    k_d = direct_pilots.shape[0]
    p = k_d + n
    d = min(k_d, 1)
    tol, threshold = cfg.pinv_tol, cfg.conv_threshold
    finite = _finite_frames(stack)
    est = _stacked_estimate(
        finite, h_ua=np.zeros((g, m, k_d), dtype=complex),
        h_ur=np.zeros((g, n, k), dtype=complex), h_ra=np.zeros((g, m, n), dtype=complex),
    )
    idx = np.flatnonzero(finite)   # the frame index of each stack slot
    if not idx.size:
        return est
    try:
        p_right = pinv_right(x, tol)   # recovers h_ur from Z at the exit
    except np.linalg.LinAlgError as err:
        _fail(est, idx, str(err))
        return est
    refusal = _schedule_refusal(np.hstack([np.ones((b, d)), psi]), direct_pilots)
    if refusal:
        _fail(est, idx, refusal)
        return est

    # sweep-invariant: W = Y F* as (D + N, M, L) per frame, its rows sum_b
    # Y_b (D = 1 with a direct block) and W[n] = sum_b conj(Psi[b, n]) Y_b;
    # the diagonal of Psi^H Psi and 1^T Psi; and the direct block's constants
    y = stack if idx.size == g else stack[idx]
    w = np.empty((len(y), d + n, m, l), dtype=complex)
    np.matmul(
        psi.conj().T, y.reshape(len(y), m * l, b).transpose(0, 2, 1),
        out=w[:, d:].reshape(len(y), n, m * l),
    )
    psi_sq = _abs2(psi).sum(axis=0)
    psi_sum = psi.sum(axis=0)
    diag = np.empty((len(y), p))
    diag[:, :k_d] = b * _abs2(direct_pilots).sum(axis=1)
    rhs = np.empty((len(y), p, m), dtype=complex)
    bx_d = b * direct_pilots
    # W, Psi's column norms and sums, the premise's Grams F^H F and
    # X_d X_d^H, the direct diagonal and B X_d, and with a direct block
    # sum_b Y_b and its right-hand side
    ops = np.full(len(y), m * l * b * n + 2 * b * n + (d + n) ** 2 * b + k_d * k_d * l + 2 * k_d * l)
    # per-sweep cost of the Z step's direct term H_ra^H H_ua X_d scaled by 1^T Psi
    z_direct = 0
    if k_d:
        w[:, 0] = y.sum(axis=3)
        rhs[:, :k_d] = direct_pilots.conj() @ w[:, 0].transpose(0, 2, 1)
        ops += m * l * b + k_d * l * m
        z_direct = n * m * k_d + n * k_d * l + n * l
    del stack, y   # no sweep reads the frame again
    # every slot's cost of a sweep, which ops leaves out: the joint step's
    # diagonal, right-hand side and division, the Z step's diagonal,
    # right-hand side, direct term and division, and the residual's B H_ra,
    # C's rows scaled by B and squared norm (the subtraction is no MAC)
    joint_step_ops = n * l + n + n * l * m + p * m
    residual_ops = m * n + m * l * n + m * k_d * l + m * l * (d + n)
    sweep_ops = joint_step_ops + n * m + n + n * l * m + z_direct + n * l + residual_ops

    # each frame's initial H_ua, H_ra and Z, as three crandn calls would draw
    # them, from one call of its generator
    h_ua, h_ra, z = crandn_stacks(
        [rngs[t] if rngs[t] is not None else np.random.default_rng(cfg.init_seed) for t in idx],
        ((m, k_d), (m, n), (n, k)),
    )
    # joint holds [H_ua | H_ra]^T as (T, P, M), the layout its step solves for
    joint = np.concatenate([h_ua, h_ra], axis=2).transpose(0, 2, 1).copy()
    z = z @ x
    del h_ua, h_ra   # copied into joint; freed before the sweep's buffers
    c_buf = np.empty_like(w)   # the residual's rows of C, reused by every sweep
    z_sq = sqnorms(z)   # Z's row norms, which the next joint diagonal reads
    failed = np.zeros(len(idx), dtype=bool)   # whether each slot failed, as fail marks it
    trace = []   # each sweep's residuals over the G frames, NaN off the stack

    def fail(it, step, step_diag, refused, new, old, reached):
        # the failure of each slot whose diagonal did not clear, at sweep it
        # with op count ops[j] + reached, the fixed sweep cost before this
        # step; its undefined row of new takes back the previous iterate, and
        # the slot stays to the sweep's exit
        for j in refused:
            if not failed[j]:
                failed[j] = True
                low, high = step_diag[j].min(), step_diag[j].max()
                _fail(est, idx[j], f"singular {step} step: Gram diagonal from {low:.3e} to {high:.3e}")
                est.iterations[idx[j]], est.op_count[idx[j]] = it, ops[j] + reached
            new[j] = old[j]

    for it in range(1, cfg.max_iters + 1):
        prev_joint = joint

        # joint step: diagonal [B ||x_d,k||^2 | (Psi^H Psi)_nn ||z_n||^2],
        # RIS rows of the right-hand side sum_l conj(z[n, l]) W[n, :, l]
        diag[:, k_d:] = psi_sq * z_sq
        rhs[:, k_d:] = (w[:, d:] @ z.conj()[..., None])[..., 0]
        joint, refused = diagonal_solves(diag, rhs, tol)
        fail(it, "joint", diag, refused, joint, prev_joint, (it - 1) * sweep_ops)
        prev_z = z

        # Z step against KR(Psi, H_ra): diagonal (Psi^H Psi)_nn ||h_ra[:, n]||^2,
        # right-hand side sum_m conj(h_ra[m, n]) W[n, m, :] less the direct
        # term conj(1^T Psi) o (H_ra^H H_ua X_d)
        joint_sq = sqnorms(joint)   # [H_ua | H_ra]'s column norms
        ra_h = joint[:, k_d:].conj()
        z_rhs = (ra_h[:, :, None, :] @ w[:, d:])[:, :, 0, :]
        if k_d:
            h_ua = joint[:, :k_d].transpose(0, 2, 1)
            z_rhs -= psi_sum.conj()[:, None] * ((ra_h @ h_ua) @ direct_pilots)
        z_diag = psi_sq * joint_sq[:, k_d:]
        z, refused = diagonal_solves(z_diag, z_rhs, tol)
        del ra_h, z_rhs   # before the residual's allocations
        fail(it, "Z", z_diag, refused, z, prev_z, (it - 1) * sweep_ops + joint_step_ops)
        z_sq = sqnorms(z)

        # squared frame-fit residual, which no stop test reads
        residuals = np.full(g, np.nan)
        residuals[idx] = _contracted_residuals(w, joint, z, bx_d, b, c_buf)
        trace.append(residuals)

        # stop test: each factor's squared change at most conv_threshold
        # times its squared norm, summed from the row norms the diagonals
        # read (a vanishing factor counts as converged)
        change = joint - prev_joint
        factors = [(z_sq, z - prev_z), (joint_sq[:, k_d:], change[:, k_d:])]
        if k_d:   # an empty direct block counts as converged
            factors.append((joint_sq[:, :k_d], change[:, :k_d]))
        done = ~failed
        for rows_sq, delta in factors:
            den = rows_sq.sum(axis=1)
            done &= (den < 1e-300) | (sqnorms(delta.reshape(len(idx), -1)) <= threshold * den)
        del prev_joint, prev_z, change, factors

        # the one exit: each frame that converged or reached max_iters writes
        # its row, h_ur recovered from Z, and a failed one leaves the row fail
        # wrote; the last staying slots move into the stopped ones, and the
        # frame-sized arrays are cut to the frames that stay
        stop = done | failed | (it == cfg.max_iters)
        if not stop.any():
            continue
        fits = np.flatnonzero(stop & ~failed)
        rows = idx[fits]
        est.h_ua[rows] = joint[fits, :k_d].transpose(0, 2, 1)
        est.h_ur[rows] = z[fits] @ p_right
        est.h_ra[rows] = joint[fits, k_d:].transpose(0, 2, 1)
        est.iterations[rows] = it
        est.converged[rows] = done[fits]
        est.op_count[rows] = ops[fits] + (it * sweep_ops + _pinv_cost(k, l) + n * l * k)
        kept = len(idx) - np.count_nonzero(stop)
        holes, movers = np.flatnonzero(stop[:kept]), kept + np.flatnonzero(~stop[kept:])
        stacks = [w, rhs, idx, ops, joint, z, z_sq, failed]
        for a in stacks:
            a[holes] = a[movers]
        w, rhs, idx, ops, joint, z, z_sq, failed = (a[:kept] for a in stacks)
        diag, c_buf = diag[:kept], c_buf[:kept]
        if not kept:
            break
    est.residual_trace = np.stack(trace, axis=1)
    return est


# no package caller; kept because perfbench/spans.py wraps this name
def als_ris(q, sched, cfg, rng=None):
    """Alternating LS fit of the RIS-path factors on a direct-path-removed tensor.

    The joint sweep of e_als_estimate with the direct block left empty.  q
    is one (M, L, B) tensor with one generator, or a stack (G, M, L, B)
    with G generators or None, which returns the stacked estimate.
    """
    q, _, rngs, single = _as_stack(q, None, rng)
    est = _alternating_fit(q, sched, np.empty((0, sched.pilots.shape[1])), cfg, rngs)
    est.h_ua = None
    return est.row(0) if single else est


def two_stage_estimate(recv, sched, cfg, rng=None):
    """RIS OFF-ON estimator: direct path from the OFF stage, RIS path as in als_ris.

    The estimated direct contribution is subtracted from every block before
    the alternating fit, so its estimation error lands in the stage-2 noise.
    recv may hold a stack of G frames (and OFF stages) with rng G
    generators or None: the frames are then fitted together into one
    stacked estimate, each row equal to that frame's estimate alone.
    """
    if recv.off_stage is None:
        raise ValueError("two_stage_estimate needs the RIS-OFF stage matrix")
    y, v, rngs, single = _as_stack(recv.tensor, recv.off_stage, rng)
    finite = _finite_frames(y, v)
    g, m, l, _ = y.shape
    k, l_off = sched.off_pilots.shape
    try:
        p_off = pinv_right(sched.off_pilots, cfg.pinv_tol)
    except np.linalg.LinAlgError as err:
        est = _stacked_estimate(finite)
        _fail(est, finite, str(err))
    else:
        h_ua = np.zeros((g, m, k), dtype=complex)
        h_ua[finite] = v[finite] @ p_off
        y -= (h_ua @ sched.pilots)[..., None]   # y is this call's own stack
        y[~finite] = np.nan   # a frame with a non-finite OFF stage fails as non-finite
        est = _alternating_fit(y, sched, np.empty((0, l)), cfg, rngs)
        est.h_ua = h_ua
        est.op_count[finite] += _pinv_cost(k, l_off) + m * l_off * k + m * k * l
    return est.row(0) if single else est


def e_als_estimate(recv, sched, cfg, rng=None):
    """Joint alternating estimator over the full frame.

    The direct channel is refit together with the RIS->AP factor every sweep,
    its regressor block built from the frame's own pilots.  recv may hold a
    stack of frames with rng a generator per frame, as in two_stage_estimate.
    """
    b, n = sched.ris_phases.shape
    k, l = sched.pilots.shape
    if b * l < n + k:
        raise ValueError(f"joint fit needs B*L >= N+K, got {b * l} < {n + k}")
    y, _, rngs, single = _as_stack(recv.tensor, None, rng)
    est = _alternating_fit(y, sched, sched.pilots, cfg, rngs)
    return est.row(0) if single else est


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
        self.p_phase = p_phase      # (N+1, B)
        self.p_pilot = p_pilot      # (K, L)
        # block mode product, then pilot mode product
        self.apply_ops = m * l * b * (n + 1) + m * k * l * (n + 1)

    def solve(self, y):
        # theta[m, k, j] = sum_{l, b} P_pilot[k, l] P_phase[j, b] Y[m, l, b] for
        # one (M, L, B) frame or each of a (T, M, L, B) stack, flattened
        # antenna fastest, then user, then [direct | RIS element]
        theta = self.p_pilot @ (y @ self.p_phase.T)
        return theta.swapaxes(-1, -3).reshape(*y.shape[:-3], -1)


def ls_baseline(recv, sched, cfg, solver=None):
    """Stacked LS over theta = [vec(direct); vec(cascaded parameters)].

    Returns the parameter vector only: the cascaded block is the Khatri-Rao
    stacking of per-user cascaded matrices and is not decoupled into separate
    RIS-path factors.  A non-finite frame, or a theta that overflows, is
    reported as a failed row.  recv may hold a stack of frames, solved
    together by one solver.solve into one stacked estimate, each row equal,
    bit for bit, to that frame's estimate alone.  solver is the
    StackedLsSolver of sched, built here when None.
    """
    y, _, _, single = _as_stack(recv.tensor, None, None)
    finite = _finite_frames(y)
    est = _stacked_estimate(finite)
    try:
        if solver is None:
            solver = StackedLsSolver(sched, y.shape[1], cfg.pinv_tol)
    except np.linalg.LinAlgError as err:
        _fail(est, finite, str(err))
    else:
        y[~finite] = 0.0   # solved as zeros: the frame has failed already
        est.theta = solver.solve(y)
        _fail(est, finite & ~np.isfinite(est.theta).all(axis=1), "non-finite parameter estimate")
        est.op_count[finite] = solver.apply_ops
    est.converged = ~est.failed
    return est.row(0) if single else est


def column_scales(h_ra, truth_h_ra):
    """Least-squares scale of each RIS->AP column against the true one, and which were skipped.

    lambda_n = <truth_n, est_n> / ||truth_n||^2 for one (M, N) estimate or
    each of a (G, M, N) stack, with its truth alike; a column with no usable
    scale (zero truth column, or an estimate orthogonal to it) keeps 1 and is
    flagged.  Each column sums its own M entries, so a row's scales do not
    depend on the rest of its stack.
    """
    truth_conj = truth_h_ra.conj()
    den = (truth_conj * truth_h_ra).real.sum(axis=-2)
    num = (truth_conj * h_ra).sum(axis=-2)
    skipped = (den == 0.0) | (num == 0)
    lam = np.divide(num, den, out=np.ones(den.shape, dtype=complex), where=~skipped)
    return lam, skipped


def resolve_scaling(est, truth):
    """Undo the per-column diagonal ambiguity of the RIS-path factor pair.

    Each column of the RIS->AP estimate is rescaled by its least-squares fit
    against the true column (column_scales), and the inverse scale is
    applied to the user->RIS rows, so the cascade is unchanged. A
    single-entry reference would do the same job in principle, but turns
    into noise whenever the true reference entry happens to be small; the
    column fit has no such weak spot. Columns with no usable scale (zero
    truth column, or an estimate orthogonal to it) are left alone and
    recorded.
    """
    if est.h_ra is None or est.h_ur is None:
        raise ValueError("resolve_scaling needs decoupled RIS-path estimates")
    lam, skipped = column_scales(est.h_ra, truth.h_ra)
    return dataclasses.replace(
        est,
        h_ra=est.h_ra / lam[None, :],
        h_ur=est.h_ur * lam[:, None],
        scaling_fallback_cols=tuple(np.flatnonzero(skipped).tolist()),
    )
