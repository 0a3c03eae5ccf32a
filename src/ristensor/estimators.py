"""Channel estimators for the RIS-assisted uplink.

Three approaches over the same training frame:

* two_stage_estimate — LS on the RIS-OFF stage for the direct path, then
  alternating LS on the direct-path-removed tensor for the RIS-path factors:
  the e_als sweep with its direct block emptied.
* e_als_estimate — joint alternating LS that refits the direct path and the
  RIS->AP factor together every sweep, using the all-blocks frame.
* ls_baseline — one stacked linear LS solve for the vectorized direct and
  cascaded parameters, with no factor decoupling.

Each alternating update's objective is within eps of its conditional LS
minimum, so the frame-fit residual recorded in residual_trace is
non-increasing sweep over sweep, up to rounding.  Each update's regressor is
a Khatri-Rao product whose Gram is a Hadamard product of factor Grams, and
the only sweep-invariant factor, the known schedule, bounds how far from
diagonal any such Gram can be: certified once per call
(tensor_ops.khatri_rao_coupling), each update is solved by dividing its
right-hand side, from the frame contracted once with the phase schedule, by
the Gram's diagonal from factor norms (tensor_ops.certified_gram_solves).
No Gram is formed; the regressor itself is formed only for an update that
is not certified, whose SVD solves it and decides singularity.  One filter
(_split_finite) makes every estimator report a frame holding NaN or inf as
a failed estimate before any solve.

Every estimator takes a ReceiveTensor of one (M, L, B) frame, or of a
stack of G frames along a leading axis, as synthesize builds a group's (the
ALS estimators then take G generators, or None), and returns a list for a
stack; a single frame is a stack of one (_as_stack).  One sweep
implementation, _alternating_fit, serves both ALS estimators on a stack of
frames that share a schedule, which frames leave at the end of the sweep in
which they converge, fail or reach max_iters; a failed solve's estimate is
written where it raises.  ls_baseline solves its stack with one
StackedLsSolver.solve.  Each call fits its own C-ordered copy of the stack,
so its caller's arrays are never written; every product runs per slice on
slices of that one layout, so each frame's estimate is the one it gets
alone, bit for bit, whatever else is in the stack.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .tensor_ops import (
    SingularMatrixError,
    certified_gram_solves,
    crandn_stacks,
    khatri_rao,
    khatri_rao_coupling,
    pinv_left,  # unused here, but perfbench/spans.py wraps this name
    pinv_right,
    pinv_with_ratio,
    sqnorms,
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
    failure_reason: str = ""
    scaling_fallback_cols: tuple = ()   # columns resolve_scaling left unscaled

    @property
    def cascade(self):
        return self.h_ra @ self.h_ur


def _abs2(a):
    return a.real**2 + a.imag**2


def _small_change(current, previous, threshold):
    # whether each slot's squared relative change against its current
    # iterate is at most threshold; a vanishing current iterate counts as
    # converged
    slots = len(current)
    den = sqnorms(current.reshape(slots, -1))
    num = sqnorms((current - previous).reshape(slots, -1))
    return (den < 1e-300) | (num <= threshold * den)


def _solve_ops(divided, division, fallback):
    # op count of a step's solves per slot: a scalar when every Gram was divided
    return division if divided.all() else np.where(divided, division, fallback)


def _pinv_cost(short, long):
    # Gram-convention multiply-accumulate count for a pseudoinverse whose
    # short side is `short`: forming the Gram matrix plus inverting it
    return short * short * long + short**3


_NON_FINITE = "non-finite frame"


def _failure(err, iteration, ops, trace):
    return ChannelEstimate(
        iterations=iteration,
        converged=False,
        op_count=ops,
        residual_trace=tuple(trace),
        failed=True,
        failure_reason=str(err),
    )


def _split_finite(*stacks):
    # a failed estimate for each frame with NaN or inf in any stack (None for
    # the others), the live frames' indices, and each stack cut to them
    finite = np.logical_and.reduce(
        [np.isfinite(s).reshape(len(s), -1).all(axis=1) for s in stacks]
    )
    live = np.flatnonzero(finite)
    results = [None if ok else _failure(_NON_FINITE, 0, 0, []) for ok in finite]
    return results, live, *(s if live.size == len(s) else s[live] for s in stacks)


def _as_stack(tensor, off_stage, rng):
    # one frame (M, L, B) with one generator is the stack of one; a stack
    # (G, M, L, B) takes G generators or None.  Returns the call's own
    # C-ordered copy of the tensor stack (the ALS fit overwrites it), the
    # OFF stages C-contiguous, the generators, and whether one frame came
    single = np.ndim(tensor) == 3
    if single:
        tensor, rngs = tensor[None], [rng]
        off_stage = None if off_stage is None else off_stage[None]
    else:
        rngs = [None] * len(tensor) if rng is None else list(rng)
        if len(rngs) != len(tensor):
            raise ValueError(f"a stack of {len(tensor)} frames got {len(rngs)} generators")
    y = np.array(tensor, order="C")
    return y, None if off_stage is None else np.ascontiguousarray(off_stage), rngs, single


# a factor that overflows (as at a subnormal pilot power) goes on as inf or
# NaN, without a warning, to the exit, and its estimate is scored as failed
@np.errstate(over="ignore", invalid="ignore")
def _alternating_fit(stack, sched, direct_pilots, cfg, rngs):
    """Alternating LS over a C-ordered stack (T, M, L, B) of frames sharing one schedule.

    Returns one ChannelEstimate per frame, each equal, bit for bit, to the
    fit of its frame alone in a stack of one: every product runs per slice,
    every norm is one BLAS dot per slot or row (sqnorms), and generator
    rngs[t] (None: default_rng(init_seed)) draws frame t's initial H_ua,
    H_ra and Z in one call, the values three crandn calls would give.
    Per sweep and frame, with a direct block of pilots X_d: one solve
    refits the direct and RIS->AP channels together against the stacked
    regressor [direct block | RIS block], then one solve refits the
    effective pilot-domain factor Z from the mode-2 unfolding with the
    direct contribution removed.  Both regressors are Khatri-Rao products,
    KR(A, B)^H KR(A, B) = (A^H A) o (B^H B), with the known factor
    [1 .. 1 | Psi] (or Psi) in every sweep, so its coupling, computed once
    per call (tensor_ops.khatri_rao_coupling), bounds the scaled
    off-diagonal of every Gram either step can take.  Their right-hand sides
    come from the frame contracted once with Psi^H along the blocks,
    W[m, l, n] = sum_b conj(Psi[b, n]) Y[m, l, b] (the MTTKRP of CP-ALS,
    since Psi is known), and their Gram diagonals from factor norms,
    (Psi^H Psi)_nn ||z_n||^2 and (Psi^H Psi)_nn ||h_ra[:, n]||^2 (plus the
    constant B ||x_d,k||^2 of the direct block).  Each step solves the whole
    stack at once (tensor_ops.certified_gram_solves), routing each frame on
    its own: under a certifying schedule, as the DFT schedules the harness
    builds are, a frame whose diagonal clears is solved by one division, its
    objective within eps of the conditional minimum, and any other forms its
    regressor for pinv_left; a frame's op_count counts the diagonal,
    right-hand side and division, or the regressor, pseudoinverse and apply
    cost of the pinv_left, that ran.  The squared residual of each
    sweep is ||Y - model||^2 from the model frame itself, its RIS term
    KR(H_ra, Z^T) Psi^T formed as one (M*L, B) product per frame.  When a
    frame's solve raises LinAlgError, its failed estimate is written there,
    with the sweep, op count and trace it reached, and its undefined update
    takes back its previous iterate.  Frames leave the stack at one exit,
    at the end of each sweep: a frame that failed, and a frame whose
    factors' squared relative changes all drop to conv_threshold or that
    has run max_iters sweeps (converged=False, not an error), with its
    estimate, the user->RIS channel recovered from Z by the pilots' right
    pseudoinverse, computed once at set-up.  The fit owns the stack it is
    given and overwrites it as frames leave.  Pilots X that pinv_right
    finds singular fail every frame at set-up, at iteration 0 with op_count
    0, as a non-finite frame does.  A 0 x L X_d empties the direct block:
    h_ua is then M x 0, counts as converged, and the sweep is the RIS-path
    fit, which forms no direct-block product.
    """
    results, idx, y = _split_finite(stack)   # idx: the frame index of each stack slot
    if not idx.size:
        return results
    m, l, b = y.shape[1:]
    psi = sched.ris_phases
    n = psi.shape[1]
    x = sched.pilots
    k = x.shape[0]
    k_d = direct_pilots.shape[0]
    p = k_d + n
    tol = cfg.pinv_tol
    try:
        p_right = pinv_right(x, tol)   # recovers h_ur from Z at the exit
    except np.linalg.LinAlgError as err:
        for t in idx:
            results[t] = _failure(err, 0, 0, [])
        return results

    # sweep-invariant: W as (N, M, L) per frame, the diagonal of Psi^H Psi,
    # 1^T Psi, and the direct block's diagonal B ||x_d,k||^2 and right-hand
    # side X_d* (sum_b Y_b)^T; and the certificate: every joint Gram is that
    # of KR([1 .. 1 | Psi], [X_d; Z]^T) and every Z Gram its RIS block, so
    # one coupling bound covers them all
    w = psi.conj().T @ y.reshape(len(y), m * l, b).transpose(0, 2, 1)
    w = w.reshape(len(y), n, m, l)
    psi_sq = _abs2(psi).sum(axis=0)
    psi_sum = psi.sum(axis=0)
    known = np.hstack([np.ones((b, k_d)), psi])   # the joint step's known factor
    coupling = khatri_rao_coupling(known, direct_pilots)
    diag = np.empty((len(y), p))
    diag[:, :k_d] = b * _abs2(direct_pilots).sum(axis=1)
    rhs = np.empty((len(y), p, m), dtype=complex)
    # W, Psi's column norms and sums, the certificate (the Grams of
    # [1 .. 1 | Psi] and X_d, and the scaled bound), the direct diagonal,
    # and with a direct block sum_b Y_b and its right-hand side
    ops = np.full(len(y), m * l * b * n + 2 * b * n + p * p * b + k_d * k_d * l + p * p + k_d * l)
    # per-sweep cost of the Z step's direct term H_ra^H H_ua X_d scaled by 1^T Psi
    z_direct = 0
    if k_d:
        rhs[:, :k_d] = direct_pilots.conj() @ y.sum(axis=3).transpose(0, 2, 1)
        ops += m * l * b + k_d * l * m
        z_direct = n * m * k_d + n * k_d * l + n * l
    # per-frame cost of a pinv_left fallback in each step: its regressor
    # (and the Z step's direct term), the pseudoinverse and its apply
    joint_svd = b * l * p + _pinv_cost(p, b * l) + p * b * l * m
    z_svd = b * m * n + b * m * k_d * l + _pinv_cost(n, b * m) + n * b * m * l

    def joint_regression(j):
        # KR([1 .. 1 | Psi], [X_d; Z]^T) against the mode-1 unfolding
        return khatri_rao(known, np.vstack([direct_pilots, z[j]]).T), unfold_mode1(y[j]).T

    def z_regression(j):
        # KR(Psi, H_ra) against the mode-2 unfolding less (1 (x) H_ua) X_d
        direct = np.tile(joint[j, :k_d].T, (b, 1)) @ direct_pilots
        return khatri_rao(psi, joint[j, k_d:].T), unfold_mode2(y[j]).T - direct

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
    traces = np.empty((len(results), cfg.max_iters))   # row t: frame t's residuals
    # the residual's KR(H_ra, Z^T) (as N x M L) and model frame, reused by
    # every sweep
    ra_z_buf = np.empty((len(y), n, m, l), dtype=complex)
    model_buf = np.empty((len(y), m, l, b), dtype=complex)

    def fail(it, errors, new, old):
        # a failed estimate for each slot whose solve raised, with the sweep,
        # op count and trace it reached; its undefined row of new takes back
        # the previous iterate, and the slot stays to the sweep's exit
        for j, err in errors.items():
            if not failed[j]:
                failed[j] = True
                results[idx[j]] = _failure(err, it, int(ops[j]), traces[idx[j], : it - 1].tolist())
            new[j] = old[j]

    for it in range(1, cfg.max_iters + 1):
        failed = np.zeros(len(idx), dtype=bool)
        prev_joint = joint

        # joint step: diagonal [B ||x_d,k||^2 | (Psi^H Psi)_nn ||z_n||^2],
        # RIS rows of the right-hand side sum_l conj(z[n, l]) W[n, :, l]
        diag[:, k_d:] = psi_sq * sqnorms(z)
        rhs[:, k_d:] = (w @ z.conj()[..., None])[..., 0]
        joint, divided, errors = certified_gram_solves(
            diag, rhs, joint_regression, coupling, tol
        )
        fail(it, errors, joint, prev_joint)
        prev_z = z
        # diagonal, right-hand side, then the division or the pinv_left
        # fallback
        ops += n * l + n + n * l * m
        ops += _solve_ops(divided, p * m, joint_svd)

        # Z step against KR(Psi, H_ra): diagonal (Psi^H Psi)_nn ||h_ra[:, n]||^2,
        # right-hand side sum_m conj(h_ra[m, n]) W[n, m, :] less the direct
        # term conj(1^T Psi) o (H_ra^H H_ua X_d)
        ra_h = joint[:, k_d:].conj()
        z_rhs = (ra_h[:, :, None, :] @ w)[:, :, 0, :]
        if k_d:
            h_ua = joint[:, :k_d].transpose(0, 2, 1)
            z_rhs -= psi_sum.conj()[:, None] * ((ra_h @ h_ua) @ direct_pilots)
        z, divided, errors = certified_gram_solves(
            psi_sq * sqnorms(joint[:, k_d:]), z_rhs, z_regression, coupling, tol
        )
        del ra_h, z_rhs   # before the residual's allocations
        fail(it, errors, z, prev_z)
        # diagonal, right-hand side, direct term, then the division or the
        # pinv_left fallback
        ops += n * m + n + n * l * m + z_direct
        ops += _solve_ops(divided, n * l, z_svd)

        # squared frame-fit residual from the model frame itself, whose RIS
        # term is KR(H_ra, Z^T) Psi^T as (M*L, B); a Gram expansion would
        # cancel (KR's rows are outer products h_ra[:, n] z_n^T, formed by
        # matmul, which needs no buffer where a broadcast product does; the
        # residual overwrites the model in place)
        slots = len(idx)
        ra_z = np.matmul(joint[:, k_d:, :, None], z[:, :, None], out=ra_z_buf)
        residual = model_buf
        np.matmul(
            ra_z.reshape(slots, n, m * l).transpose(0, 2, 1), psi.T,
            out=residual.reshape(slots, m * l, b),
        )
        np.subtract(y, residual, out=residual)
        if k_d:
            residual -= (joint[:, :k_d].transpose(0, 2, 1) @ direct_pilots)[..., None]
        ops += m * l * n + m * l * n * b + m * k_d * l + m * l * b
        traces[idx, it - 1] = sqnorms(residual.reshape(slots, -1))
        done = (
            _small_change(joint[:, :k_d], prev_joint[:, :k_d], cfg.conv_threshold)
            & _small_change(joint[:, k_d:], prev_joint[:, k_d:], cfg.conv_threshold)
            & _small_change(z, prev_z, cfg.conv_threshold)
        )
        del prev_joint, prev_z

        # the one exit: each frame that converged or reached max_iters leaves
        # with its estimate, h_ur recovered from Z, and a failed one with the
        # estimate fail wrote; the last staying slots move into the stopped
        # ones, and the frame-sized arrays are cut to the frames that stay
        stop = done | failed | (it == cfg.max_iters)
        if not stop.any():
            continue
        fits = np.flatnonzero(stop & ~failed)
        for j, h_ur in zip(fits, z[fits] @ p_right):
            i = idx[j]
            results[i] = ChannelEstimate(
                h_ua=joint[j, :k_d].copy().T, h_ur=h_ur, h_ra=joint[j, k_d:].copy().T,
                iterations=it, converged=bool(done[j]),
                op_count=int(ops[j]) + _pinv_cost(k, l) + n * l * k,
                residual_trace=tuple(traces[i, :it].tolist()),
            )
        kept = slots - np.count_nonzero(stop)
        holes, movers = np.flatnonzero(stop[:kept]), kept + np.flatnonzero(~stop[kept:])
        stacks = [y, w, rhs, idx, ops, joint, z]
        for a in stacks:
            a[holes] = a[movers]
        y, w, rhs, idx, ops, joint, z = (a[:kept] for a in stacks)
        diag, ra_z_buf, model_buf = diag[:kept], ra_z_buf[:kept], model_buf[:kept]
        if not kept:
            break
    return results


# no package caller; kept because perfbench/spans.py wraps this name
def als_ris(q, sched, cfg, rng=None):
    """Alternating LS fit of the RIS-path factors on a direct-path-removed tensor.

    The joint sweep of e_als_estimate with the direct block left empty.  q
    is one (M, L, B) tensor with one generator, or a stack (T, M, L, B)
    with T generators or None, which returns a list of estimates.
    """
    q, _, rngs, single = _as_stack(q, None, rng)
    fits = _alternating_fit(q, sched, np.empty((0, sched.pilots.shape[1])), cfg, rngs)
    fits = [dataclasses.replace(fit, h_ua=None) for fit in fits]
    return fits[0] if single else fits


def two_stage_estimate(recv, sched, cfg, rng=None):
    """RIS OFF-ON estimator: direct path from the OFF stage, RIS path as in als_ris.

    The estimated direct contribution is subtracted from every block before
    the alternating fit, so its estimation error lands in the stage-2 noise.
    recv may hold a stack of G frames (and OFF stages) with rng G
    generators or None: the frames are then fitted together and a list of
    estimates returned, each equal to that frame's estimate alone.
    """
    if recv.off_stage is None:
        raise ValueError("two_stage_estimate needs the RIS-OFF stage matrix")
    y, v, rngs, single = _as_stack(recv.tensor, recv.off_stage, rng)
    results, live, y, v = _split_finite(y, v)
    if live.size:
        m, l, _ = y.shape[1:]
        k, l_off = sched.off_pilots.shape
        try:
            h_ua = v @ pinv_right(sched.off_pilots, cfg.pinv_tol)
        except np.linalg.LinAlgError as err:
            for t in live:
                results[t] = _failure(err, 0, 0, [])
        else:
            ops = _pinv_cost(k, l_off) + m * l_off * k + m * k * l
            y -= (h_ua @ sched.pilots)[..., None]   # y is this call's own stack
            fits = _alternating_fit(y, sched, np.empty((0, l)), cfg, [rngs[t] for t in live])
            for t, fit, direct in zip(live, fits, h_ua):
                results[t] = dataclasses.replace(
                    fit, h_ua=None if fit.failed else direct, op_count=fit.op_count + ops
                )
    return results[0] if single else results


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
    fits = _alternating_fit(y, sched, sched.pilots, cfg, rngs)
    return fits[0] if single else fits


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
    reported as a failed estimate.  recv may hold a stack of frames, solved
    together by one solver.solve, and a list of estimates is then returned,
    each equal, bit for bit, to that frame's estimate alone.  solver is the
    StackedLsSolver of sched, built here when None.
    """
    y, _, _, single = _as_stack(recv.tensor, None, None)
    results, live, y = _split_finite(y)
    if live.size:
        try:
            if solver is None:
                solver = StackedLsSolver(sched, y.shape[1], cfg.pinv_tol)
            thetas = solver.solve(y)
        except np.linalg.LinAlgError as err:
            for t in live:
                results[t] = _failure(err, 0, 0, [])
        else:
            for t, theta in zip(live, thetas):
                if np.all(np.isfinite(theta)):
                    results[t] = ChannelEstimate(
                        theta=theta, iterations=0, converged=True, op_count=solver.apply_ops
                    )
                else:
                    results[t] = _failure("non-finite parameter estimate", 0, solver.apply_ops, [])
    return results[0] if single else results


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
