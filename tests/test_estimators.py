import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ristensor.estimators
import ristensor.tensor_ops
from ristensor.channels import ChannelModelConfig, ChannelSet, draw_channels
from ristensor.estimators import (
    ChannelEstimate,
    EstimatorConfig,
    StackedLsSolver,
    als_ris,
    e_als_estimate,
    ls_baseline,
    resolve_scaling,
    two_stage_estimate,
)
from ristensor.harness import ExperimentConfig, run_experiment
from ristensor.metrics import aggregate_vector_nmse, nmse, stacked_parameter_vector
from ristensor.signals import (
    ReceiveTensor,
    SystemConfig,
    TrainingSchedule,
    make_phase_schedule,
    make_pilots,
    make_schedule,
    synthesize,
)
from ristensor.tensor_ops import (
    SingularMatrixError,
    crandn,
    diagonal_solves,
    dft_matrix,
    is_scaled_unitary,
    khatri_rao,
    pinv_left,
    pinv_right,
    unfold_mode1,
    unfold_mode2,
)

DIMS = (4, 8, 25)
PSI_REFUSAL = "refused schedule: its phase factor F is not square with F^H F = B I"
PILOT_REFUSAL = "refused schedule: its direct pilots X_d do not have X_d X_d^H = c I"


def noiseless_setup(mode, seed=0, snr_db=20.0):
    cfg = SystemConfig(snr_db=snr_db, noise_var=0.0)
    ch = draw_channels(ChannelModelConfig(), DIMS, np.random.default_rng(seed))
    sched = make_schedule(cfg, mode)
    recv = synthesize(ch, sched, cfg, np.random.default_rng(seed + 1))
    return cfg, ch, sched, recv


def noisy_setup(mode, seed=0, snr_db=10.0):
    cfg = SystemConfig(snr_db=snr_db)
    ch = draw_channels(ChannelModelConfig(), DIMS, np.random.default_rng(seed))
    sched = make_schedule(cfg, mode)
    recv = synthesize(ch, sched, cfg, np.random.default_rng(seed + 1))
    return cfg, ch, sched, recv


def stack_of(frames):
    # one ReceiveTensor holding the frames along a leading axis
    offs = [f.off_stage for f in frames]
    return ReceiveTensor(
        tensor=np.stack([f.tensor for f in frames]),
        off_stage=None if offs[0] is None else np.stack(offs),
    )


def test_off_stage_ls_recovers_direct_path_exactly():
    rng = np.random.default_rng(0)
    h = crandn(rng, (4, 8))
    x_bar = make_pilots(8, 8, 2.0)
    est = (h @ x_bar) @ pinv_right(x_bar)
    assert nmse(est, h) <= 1e-10
    # DFT rows make the pseudoinverse a scaled hermitian transpose
    np.testing.assert_allclose(est, (h @ x_bar) @ x_bar.conj().T / (8 * 2.0), atol=1e-10)
    # two_stage_estimate's direct path is that product on its OFF stage
    cfg, ch, sched, recv = noiseless_setup("two_stage", seed=5)
    est = two_stage_estimate(recv, sched, EstimatorConfig(), np.random.default_rng(6))
    np.testing.assert_array_equal(est.h_ua, recv.off_stage @ pinv_right(sched.off_pilots))


def test_singular_off_pilots_fail_every_frame():
    # an all-zero X_bar has no right pseudoinverse: the OFF-stage LS raises
    # once for the stack, and every frame is a failed estimate without h_ua
    cfg, ch, sched, recv = noiseless_setup("two_stage", seed=7)
    sched = dataclasses.replace(sched, off_pilots=np.zeros_like(sched.off_pilots))
    stacked = two_stage_estimate(stack_of([recv] * 3), sched, EstimatorConfig(),
                                 [np.random.default_rng(s) for s in range(3)])
    for est in map(stacked.row, range(3)):
        assert est.failed
        assert est.failure_reason.startswith("pinv_right of 8x8 matrix: singular value ratio")
        assert est.h_ua is None and est.h_ra is None and est.h_ur is None


def test_als_rank_one_case():
    # N = B = 1 with a unit phase: one sweep closes the fit
    rng = np.random.default_rng(1)
    h_ra = crandn(rng, (3, 1))
    h_ur = crandn(rng, (1, 2))
    x = make_pilots(2, 2, 1.0)
    sched = TrainingSchedule(pilots=x, ris_phases=np.ones((1, 1)))
    q = ((h_ra @ h_ur) @ x)[:, :, None]
    est = als_ris(q, sched, EstimatorConfig(), np.random.default_rng(2))
    assert nmse(est.h_ra @ est.h_ur, h_ra @ h_ur) <= 1e-8


def test_als_noiseless_cascade():
    cfg, ch, sched, recv = noiseless_setup("two_stage")
    q = recv.tensor - (ch.h_ua @ sched.pilots)[:, :, None]
    est = als_ris(q, sched, EstimatorConfig(max_iters=50), np.random.default_rng(3))
    assert est.converged
    assert nmse(est.h_ra @ est.h_ur, ch.cascade) <= 1e-6


def test_als_pure_noise_is_robust():
    _, _, sched, _ = noisy_setup("two_stage")
    rng = np.random.default_rng(4)
    q = crandn(rng, (4, 8, 25))
    est = als_ris(q, sched, EstimatorConfig(), np.random.default_rng(5))
    assert not est.failed
    assert np.all(np.isfinite(est.h_ra))
    assert np.all(np.isfinite(est.h_ur))


def test_als_monotone_residual():
    _, ch, sched, recv = noisy_setup("two_stage", seed=6)
    q = recv.tensor - (ch.h_ua @ sched.pilots)[:, :, None]
    est = als_ris(q, sched, EstimatorConfig(), np.random.default_rng(7))
    trace = est.residual_trace
    assert len(trace) == est.iterations
    for earlier, later in zip(trace, trace[1:]):
        assert later <= earlier * (1 + 1e-9)


def test_als_structured_failure_on_singular_schedule():
    # constant phase rows collapse the Khatri-Rao factor rank; such a Psi
    # is not scaled unitary, so the fit refuses it before any sweep
    sched = TrainingSchedule(pilots=make_pilots(8, 8, 1.0), ris_phases=np.ones((25, 25)))
    q = np.zeros((4, 8, 25), dtype=complex)
    q[0, 0, 0] = 1.0
    est = als_ris(q, sched, EstimatorConfig(), np.random.default_rng(8))
    assert est.failed
    assert est.iterations == 0 and est.op_count == 0
    assert est.h_ra is None
    assert est.failure_reason == PSI_REFUSAL


def test_two_stage_noiseless_composition():
    cfg, ch, sched, recv = noiseless_setup("two_stage", seed=9)
    est = two_stage_estimate(recv, sched, EstimatorConfig(max_iters=50), np.random.default_rng(10))
    assert nmse(est.h_ua, ch.h_ua) <= 1e-10
    assert nmse(est.h_ra @ est.h_ur, ch.cascade) <= 1e-6


def test_two_stage_requires_off_stage():
    cfg, ch, sched, recv = noisy_setup("e_als", seed=11)
    with pytest.raises(ValueError, match="OFF"):
        two_stage_estimate(recv, sched, EstimatorConfig(), np.random.default_rng(0))


def test_two_stage_oracle_direct_path_improves_stage_two():
    # replacing the stage-1 estimate with the truth must help, in the median
    cfg = SystemConfig(snr_db=10.0)
    sched = make_schedule(cfg, "two_stage")
    model = ChannelModelConfig()
    est_cfg = EstimatorConfig()
    diffs = []
    for trial in range(100):
        ch = draw_channels(model, DIMS, np.random.default_rng(1000 + trial))
        recv = synthesize(ch, sched, cfg, np.random.default_rng(2000 + trial))
        est = two_stage_estimate(recv, sched, est_cfg, np.random.default_rng(3000 + trial))
        q_oracle = recv.tensor - (ch.h_ua @ sched.pilots)[:, :, None]
        oracle = als_ris(q_oracle, sched, est_cfg, np.random.default_rng(3000 + trial))
        diffs.append(
            nmse(est.h_ra @ est.h_ur, ch.cascade) - nmse(oracle.h_ra @ oracle.h_ur, ch.cascade)
        )
    assert np.median(diffs) > 0


def test_e_als_noiseless_recovery():
    cfg, ch, sched, recv = noiseless_setup("e_als", seed=12)
    est = e_als_estimate(recv, sched, EstimatorConfig(max_iters=50), np.random.default_rng(13))
    assert est.converged
    assert nmse(est.h_ua, ch.h_ua) <= 1e-8
    assert nmse(est.h_ra @ est.h_ur, ch.cascade) <= 1e-6


def test_e_als_null_direct_channel():
    cfg = SystemConfig(snr_db=30.0)
    ch = draw_channels(ChannelModelConfig(), DIMS, np.random.default_rng(14))
    ch = ChannelSet(h_ua=np.zeros_like(ch.h_ua), h_ra=ch.h_ra, h_ur=ch.h_ur)
    sched = make_schedule(cfg, "e_als")
    recv = synthesize(ch, sched, cfg, np.random.default_rng(15))
    est = e_als_estimate(recv, sched, EstimatorConfig(), np.random.default_rng(16))
    ratio = np.linalg.norm(est.h_ua) ** 2 / np.linalg.norm(est.h_ra @ est.h_ur) ** 2
    assert ratio <= 1e-4


def test_e_als_determinism():
    cfg, ch, sched, recv = noisy_setup("e_als", seed=17)
    a = e_als_estimate(recv, sched, EstimatorConfig(), np.random.default_rng(18))
    b = e_als_estimate(recv, sched, EstimatorConfig(), np.random.default_rng(18))
    np.testing.assert_array_equal(a.h_ua, b.h_ua)
    np.testing.assert_array_equal(a.h_ra, b.h_ra)
    np.testing.assert_array_equal(a.h_ur, b.h_ur)
    assert a.iterations == b.iterations
    assert a.residual_trace == b.residual_trace


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=3),
    frames=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(shapes=[(4, 8), (4, 25), (25, 8)], frames=3, seed=0)   # e_als at stock dims
@example(shapes=[(4, 0), (4, 25), (25, 8)], frames=2, seed=1)   # two_stage: no direct block
def test_one_draw_per_generator_equals_successive_crandn_calls(shapes, frames, seed):
    # the initial factors of _alternating_fit are what crandn would give,
    # bit for bit, and leave each generator where crandn would
    seqs = np.random.SeedSequence(seed).spawn(frames)
    rngs = [np.random.default_rng(q) for q in seqs]
    stacks = ristensor.tensor_ops.crandn_stacks(rngs, shapes)
    assert len(stacks) == len(shapes)
    for t, (q, rng) in enumerate(zip(seqs, rngs)):
        ref = np.random.default_rng(q)
        for stack, shape in zip(stacks, shapes):
            want = crandn(ref, shape)
            assert stack[t].shape == want.shape and stack[t].dtype == want.dtype
            assert stack[t].tobytes() == want.tobytes()
        assert rng.random() == ref.random()


def test_e_als_monotone_residual():
    cfg, ch, sched, recv = noisy_setup("e_als", seed=19)
    est = e_als_estimate(recv, sched, EstimatorConfig(), np.random.default_rng(20))
    for earlier, later in zip(est.residual_trace, est.residual_trace[1:]):
        assert later <= earlier * (1 + 1e-9)


def test_e_als_dimension_precondition():
    cfg = SystemConfig(m_ap=2, k_users=2, n_ris=4, pilot_len=2, off_stage_len=2)
    ch = draw_channels(
        ChannelModelConfig(ris_rows=2, ris_cols=2), (2, 2, 4), np.random.default_rng(21)
    )
    sched = make_schedule(cfg, "e_als")
    recv = synthesize(ch, sched, cfg, np.random.default_rng(22))
    clipped = dataclasses.replace(recv, tensor=recv.tensor[:, :, :2])
    short = TrainingSchedule(pilots=sched.pilots, ris_phases=sched.ris_phases[:2])
    with pytest.raises(ValueError, match="N\\+K"):
        e_als_estimate(clipped, short, EstimatorConfig(), np.random.default_rng(0))


@pytest.mark.parametrize(
    "mode, estimator, expected",
    [("two_stage", two_stage_estimate, 3_950), ("e_als", e_als_estimate, 6_870)],
    ids=["two_stage", "e_als"],
)
def test_sweep_op_count_is_the_gram_path_cost(mode, estimator, expected):
    # on the DFT schedules both steps solve by division, no Gram is
    # formed, and the residual comes from W.  two_stage (M=4, L=8,
    # B=N=25, K_d=0, p=25): joint step N L + N + N L M + p M = 1,125, Z step
    # N M + N + N L M + N L = 1,125 (an empty direct block has no direct
    # term), residual M N + M L N + M L N = 1,700: 3,950.  e_als (B=26,
    # K_d=8, p=33): joint step 1,157, Z step 3,725 (its direct term
    # N M K_d + N K_d L + N L is 2,600), residual M N + M L N + M K_d L +
    # M L (1 + N) = 1,988: 6,870
    cfg, ch, sched, recv = noisy_setup(mode, seed=23)
    m, l, b = recv.tensor.shape
    k, n = sched.pilots.shape[0], sched.ris_phases.shape[1]
    k_d = k if mode == "e_als" else 0
    p = k_d + n
    # joint step: diagonal (Psi^H Psi)_nn ||z_n||^2, right-hand side from
    # W, division
    joint = n * l + n + n * l * m + p * m
    # Z step: diagonal (Psi^H Psi)_nn ||h_ra[:, n]||^2, right-hand side from
    # W, direct term H_ra^H H_ua X_d scaled by 1^T Psi, division
    direct = n * m * k_d + n * k_d * l + n * l if k_d else 0
    z_step = n * m + n + n * l * m + direct + n * l
    # residual: B H_ra, C's rows h_ra[:, n] z_n^T (and B H_ua X_d) scaled
    # by B, squared norm of W less them
    d = 1 if k_d else 0
    residual = m * n + m * l * n + m * k_d * l + m * l * (d + n)
    per_sweep = joint + z_step + residual
    assert per_sweep == expected
    # once per call: W, Psi's column norms and sums, the premise's Grams
    # F^H F (F = [1 | Psi], or Psi) and X_d X_d^H, the direct diagonal and
    # B X_d, and with a direct block sum_b Y_b and its right-hand side; at
    # the exit h_ur = Z pinv_right(X); two_stage adds its OFF stage
    once = m * l * b * n + 2 * b * n + (d + n) ** 2 * b + k_d * k_d * l + 2 * k_d * l
    once += m * l * b + k_d * l * m if k_d else 0
    once += k * k * l + k**3 + n * l * k
    if mode == "two_stage":
        l_off = sched.off_pilots.shape[1]
        once += k * k * l_off + k**3 + m * l_off * k + m * k * l
    assert once == {"two_stage": 41_035, "e_als": 44_028}[mode]
    ops = []
    for sweeps in (1, 2):
        est_cfg = EstimatorConfig(max_iters=sweeps, conv_threshold=1e-300)
        est = estimator(recv, sched, est_cfg, np.random.default_rng(24))
        assert est.iterations == sweeps and not est.converged
        ops.append(est.op_count)
    assert ops == [once + per_sweep, once + 2 * per_sweep]


def model_frame_residuals(y, psi, h_ua, h_ra, z, x_d):
    # ||Y - model||^2 of each frame from its model frame, formed entry by entry
    model = np.einsum("tmn,tnl,bn->tmlb", h_ra, z, psi) + (h_ua @ x_d)[..., None]
    return np.array([np.vdot(r, r).real for r in y - model])


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["two_stage", "e_als"]),
    m=st.integers(1, 4),
    k=st.integers(1, 3),
    extra_l=st.integers(0, 2),
    n=st.integers(1, 6),
    slots=st.integers(1, 4),
    noise=st.sampled_from([0.0, 1e-3, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(mode="two_stage", m=4, k=8, extra_l=0, n=25, slots=3, noise=1.0, seed=0)
@example(mode="e_als", m=4, k=8, extra_l=0, n=25, slots=3, noise=1.0, seed=0)
@example(mode="e_als", m=4, k=8, extra_l=0, n=25, slots=2, noise=0.0, seed=1)
def test_residual_from_w_is_the_model_frame_residual(mode, m, k, extra_l, n, slots, noise, seed):
    # random frames and factors on the DFT schedules: the residual from
    # W = Y F* equals ||Y - model||^2 from the model frame within 1e-12
    # relative, or an eps ||Y||^2 floor where the fit is (nearly) exact and
    # the rounding of Y itself dominates; and each frame's residual in a
    # stack equals its residual alone, bit for bit
    rng = np.random.default_rng(seed)
    l = k + extra_l
    psi = make_phase_schedule(n, mode)
    b = psi.shape[0]
    x_d = make_pilots(k, l, 1.0) if mode == "e_als" else np.empty((0, l))
    k_d = len(x_d)
    h_ua, h_ra, z = (crandn(rng, (slots, *shape)) for shape in ((m, k_d), (m, n), (n, l)))
    y = np.einsum("tmn,tnl,bn->tmlb", h_ra, z, psi) + (h_ua @ x_d)[..., None]
    y += noise * crandn(rng, y.shape)
    f = psi if mode == "two_stage" else np.hstack([np.ones((b, 1)), psi])
    w = np.einsum("tmlb,bj->tjml", y, f.conj())
    h = np.concatenate([h_ua, h_ra], axis=2).transpose(0, 2, 1).copy()
    want = model_frame_residuals(y, psi, h_ua, h_ra, z, x_d)
    contracted = ristensor.estimators._contracted_residuals

    def from_w(rows):
        return contracted(w[rows], h[rows], z[rows], b * x_d, b, np.empty_like(w[rows]))

    floor = np.finfo(float).eps * np.array([np.vdot(frame, frame).real for frame in y])
    got = from_w(slice(None))
    assert np.all(np.abs(got - want) <= 1e-12 * want + floor)
    for t in range(slots):
        assert from_w(slice(t, t + 1))[0] == got[t]


@pytest.mark.parametrize("schedule", ["dft", "random_psi", "tall"])
@pytest.mark.parametrize("mode", ["two_stage", "e_als"])
def test_residual_takes_the_model_frame_only_off_a_square_unitary_f(mode, schedule):
    # the DFT schedules' F (Psi, or [1 | Psi] with a direct block) is square
    # with F^H F = B I, so every sweep's residual comes from W; a random
    # unit-modulus Psi, and DFT columns with B > N + 1 rows (F^H F = B I,
    # but F not square), are refused: every frame fails before any sweep,
    # and no residual of any kind is formed
    system = SystemConfig(m_ap=2, k_users=2, n_ris=4, pilot_len=2, off_stage_len=2)
    rng = np.random.default_rng(64)
    n, d = system.n_ris, 1 if mode == "e_als" else 0
    if schedule == "dft":
        psi = make_phase_schedule(n, mode)
    elif schedule == "random_psi":
        psi = np.exp(2j * np.pi * rng.random((n + d, n)))
    else:
        psi = dft_matrix(n + 3)[:, d:d + n]
    pilots = make_pilots(2, 2, system.power)
    sched = TrainingSchedule(
        pilots=pilots, ris_phases=psi, off_pilots=pilots if mode == "two_stage" else None
    )
    ch = ChannelSet(h_ua=crandn(rng, (2, 2)), h_ra=crandn(rng, (2, n)), h_ur=crandn(rng, (n, 2)))
    recv = synthesize(ch, sched, system, rng)
    estimator = two_stage_estimate if mode == "two_stage" else e_als_estimate
    contracted = mock.Mock(wraps=ristensor.estimators._contracted_residuals)
    with mock.patch.object(ristensor.estimators, "_contracted_residuals", contracted):
        est = estimator(recv, sched, EstimatorConfig(max_iters=3), rng)
    if schedule == "dft":
        assert not est.failed and contracted.call_count == est.iterations > 0
    else:
        assert est.failed and est.failure_reason == PSI_REFUSAL
        assert est.iterations == 0 and contracted.call_count == 0


@pytest.mark.parametrize("n", [1, 2, 25, 256])
def test_scaled_unitary_check_passes_dft_and_fails_a_moved_entry(n):
    # the exact DFT(N) and DFT(N+1) of the two schedules pass, and the fit
    # runs; a copy of Psi with one entry moved by 1e-10 fails, and the fit
    # refuses it: every frame fails before any sweep
    system = SystemConfig(m_ap=4, k_users=2, n_ris=n, pilot_len=2, off_stage_len=2, snr_db=10.0)
    rng = np.random.default_rng(65 + n)
    ch = ChannelSet(h_ua=crandn(rng, (4, 2)), h_ra=crandn(rng, (4, n)), h_ur=crandn(rng, (n, 2)))
    for mode, estimator in (("two_stage", two_stage_estimate), ("e_als", e_als_estimate)):
        sched = make_schedule(system, mode)
        psi = sched.ris_phases
        b, d = psi.shape[0], 1 if mode == "e_als" else 0
        assert is_scaled_unitary(np.hstack([np.ones((b, d)), psi]))
        moved = psi.copy()
        moved[b // 2, -1] += 1e-10
        assert not is_scaled_unitary(np.hstack([np.ones((b, d)), moved]))
        recv = synthesize(ch, sched, system, rng)
        est = estimator(recv, sched, EstimatorConfig(), rng)
        assert not est.failed and est.iterations > 0
        trace = est.residual_trace
        assert all(later <= earlier * (1 + 1e-9) for earlier, later in zip(trace, trace[1:]))
        sched = dataclasses.replace(sched, ris_phases=moved)
        est = estimator(synthesize(ch, sched, system, rng), sched, EstimatorConfig(), rng)
        assert est.failed and est.failure_reason == PSI_REFUSAL and est.iterations == 0


def test_ls_baseline_noiseless_exact():
    cfg, ch, sched, recv = noiseless_setup("e_als", seed=23)
    est = ls_baseline(recv, sched, EstimatorConfig())
    truth = stacked_parameter_vector(ch.h_ua, ch.h_ra, ch.h_ur)
    assert nmse(est.theta, truth) <= 1e-8
    assert est.h_ra is None  # no decoupled factors from the baseline


def test_ls_baseline_square_at_default_dims():
    cfg = SystemConfig()
    sched = make_schedule(cfg, "e_als")
    solver = StackedLsSolver(sched, cfg.m_ap)
    # square factors make the 832 x 832 regressor square: M*L*B = M*K*(N+1)
    assert solver.p_phase.shape == (26, 26)
    assert solver.p_pilot.shape == (8, 8)


def test_ls_baseline_tiny_hand_system():
    # single user, single RIS element, two blocks: y = x*(h_ua + psi_b*g)
    x = np.array([[1.0 + 0j]])
    psi = np.array([[1.0 + 0j], [-1.0 + 0j]])
    sched = TrainingSchedule(pilots=x, ris_phases=psi)
    h_ua, g = 0.7 - 0.2j, 0.3 + 0.5j
    tensor = np.array([h_ua + g, h_ua - g], dtype=complex).reshape(1, 1, 2)
    recv = type("Recv", (), {"tensor": tensor, "off_stage": None})()
    est = ls_baseline(recv, sched, EstimatorConfig())
    np.testing.assert_allclose(est.theta, [h_ua, g], atol=1e-12)


def test_ls_baseline_requires_enough_observations():
    cfg = SystemConfig(m_ap=2, k_users=2, n_ris=4, pilot_len=2, off_stage_len=2)
    sched = make_schedule(cfg, "e_als")
    short = TrainingSchedule(pilots=sched.pilots, ris_phases=sched.ris_phases[:3])
    with pytest.raises(ValueError, match="M\\*L\\*B"):
        StackedLsSolver(short, cfg.m_ap)


def dense_stacked_regressor(sched, m):
    # reference implementation: the regressor StackedLsSolver never forms
    phase = np.hstack([np.ones((sched.ris_phases.shape[0], 1)), sched.ris_phases])
    return np.kron(np.kron(phase, sched.pilots.T), np.eye(m))


@settings(max_examples=50, deadline=None)
@given(
    m=st.integers(1, 3),
    k=st.integers(1, 3),
    extra_l=st.integers(0, 2),
    n=st.integers(1, 3),
    extra_b=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_ls_solver_matches_dense_pinv(m, k, extra_l, n, extra_b, seed):
    rng = np.random.default_rng(seed)
    l, b = k + extra_l, n + 1 + extra_b
    sched = TrainingSchedule(pilots=crandn(rng, (k, l)), ris_phases=crandn(rng, (b, n)))
    dense = dense_stacked_regressor(sched, m)
    assume(np.linalg.cond(dense) < 1e6)
    recv = ReceiveTensor(tensor=crandn(rng, (m, l, b)))
    theta = StackedLsSolver(sched, m).solve(recv.tensor)
    expected = np.linalg.pinv(dense) @ recv.tensor.reshape(-1, order="F")
    assert np.linalg.norm(theta - expected) <= 1e-10 * np.linalg.norm(expected)


def test_ls_solver_rank_deficient_phase_schedule():
    # a Psi column of all ones repeats the direct-path column of [1 | Psi]
    cfg = SystemConfig(m_ap=2, k_users=2, n_ris=4, pilot_len=2, off_stage_len=2)
    sched = make_schedule(cfg, "e_als")
    psi = sched.ris_phases.copy()
    psi[:, 1] = 1.0
    singular = TrainingSchedule(pilots=sched.pilots, ris_phases=psi)
    with pytest.raises(SingularMatrixError, match="singular"):
        StackedLsSolver(singular, cfg.m_ap)
    recv = ReceiveTensor(tensor=crandn(np.random.default_rng(29), (2, 2, psi.shape[0])))
    est = ls_baseline(recv, singular, EstimatorConfig())
    assert est.failed
    assert est.theta is None
    assert "singular" in est.failure_reason


def test_ls_solver_fewer_pilots_than_users_is_singular():
    # M*L*B >= M*K*(N+1) holds, but X^T (L x K) cannot have full column rank
    sched = TrainingSchedule(
        pilots=np.array([[1.0], [1.0j]]), ris_phases=np.array([[1.0], [-1.0], [1.0j], [-1.0j]])
    )
    assert np.linalg.matrix_rank(dense_stacked_regressor(sched, 1)) < 4
    with pytest.raises(SingularMatrixError, match="singular"):
        StackedLsSolver(sched, 1)


@pytest.mark.parametrize("tol", [1e-5, 1e-7])
def test_ls_solver_singular_check_is_on_the_whole_regressor(tol):
    # each factor has singular value ratio 1e-3; the regressor has 1e-6
    sched = TrainingSchedule(
        pilots=np.diag([1.0, 1e-3]).astype(complex), ris_phases=np.array([[1e-3], [-1e-3]])
    )
    s = np.linalg.svd(dense_stacked_regressor(sched, 2), compute_uv=False)
    assert s[-1] / s[0] == pytest.approx(1e-6)
    if s[-1] / s[0] < tol:
        with pytest.raises(SingularMatrixError):
            StackedLsSolver(sched, 2, tol)
    else:
        StackedLsSolver(sched, 2, tol)


def test_ls_solver_stores_only_the_factor_pseudoinverses():
    cfg = SystemConfig()
    sched = make_schedule(cfg, "e_als")
    solver = StackedLsSolver(sched, cfg.m_ap)
    b, n = sched.ris_phases.shape
    k, l = sched.pilots.shape
    assert max(np.size(v) for v in vars(solver).values()) <= b * (n + 1) + k * l


def with_nan(recv, field="tensor"):
    poisoned = getattr(recv, field).copy()
    poisoned[(0,) * poisoned.ndim] = np.nan
    return dataclasses.replace(recv, **{field: poisoned})


@pytest.mark.parametrize(
    "name, field",
    [("two_stage", "tensor"), ("two_stage", "off_stage"), ("e_als", "tensor"), ("ls", "tensor")],
)
def test_nan_frame_is_a_failed_estimate(name, field):
    mode = "two_stage" if name == "two_stage" else "e_als"
    _, _, sched, recv = noisy_setup(mode, seed=30)
    recv = with_nan(recv, field)
    cfg = EstimatorConfig()
    if name == "two_stage":
        est = two_stage_estimate(recv, sched, cfg, np.random.default_rng(31))
    elif name == "e_als":
        est = e_als_estimate(recv, sched, cfg, np.random.default_rng(31))
    else:
        est = ls_baseline(recv, sched, cfg)
    assert est.failed
    assert est.failure_reason


TINY = SystemConfig(m_ap=2, k_users=2, n_ris=4, pilot_len=2, off_stage_len=2)
FRAME_KINDS = ("synthesized", "random", "one_nan", "one_inf", "zero", "scaled_up", "scaled_down")


def tiny_frame(kind, sched, seed):
    rng = np.random.default_rng(seed)
    ch = draw_channels(ChannelModelConfig(ris_rows=2, ris_cols=2), (2, 2, 4), rng)
    recv = synthesize(ch, sched, TINY, rng)
    if kind == "synthesized":
        return recv
    if kind in ("one_nan", "one_inf"):
        tensor = recv.tensor.copy()
        tensor.flat[rng.integers(tensor.size)] = np.nan if kind == "one_nan" else np.inf
        return dataclasses.replace(recv, tensor=tensor)

    def change(a):
        if a is None:
            return None
        if kind == "random":
            return crandn(rng, a.shape)
        if kind == "zero":
            return np.zeros_like(a)
        return a * (1e150 if kind == "scaled_up" else 1e-150)

    return ReceiveTensor(tensor=change(recv.tensor), off_stage=change(recv.off_stage))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(FRAME_KINDS))
def test_no_frame_makes_an_estimator_raise(seed, kind):
    cfg = EstimatorConfig()
    for name in ("two_stage", "e_als", "ls"):
        sched = make_schedule(TINY, "two_stage" if name == "two_stage" else "e_als")
        recv = tiny_frame(kind, sched, seed)
        if name == "two_stage":
            est = two_stage_estimate(recv, sched, cfg, np.random.default_rng(seed))
        elif name == "e_als":
            est = e_als_estimate(recv, sched, cfg, np.random.default_rng(seed))
        else:
            est = ls_baseline(recv, sched, cfg)
        if not est.failed:
            for part in (est.h_ua, est.h_ur, est.h_ra, est.theta):
                assert part is None or np.all(np.isfinite(part)), (name, kind)


def estimate(name, recv, sched, cfg, rng):
    # als_ris on the frame's tensor, ls with no generator
    if name == "als_ris":
        return als_ris(recv.tensor, sched, cfg, rng)
    if name == "ls":
        return ls_baseline(recv, sched, cfg)
    return (two_stage_estimate if name == "two_stage" else e_als_estimate)(recv, sched, cfg, rng)


@pytest.mark.parametrize("kind", ["one_nan", "one_inf", "zero"])
def test_bad_frames_raise_no_numpy_warning(kind):
    # the NaN, inf and zero frames of the cases above, with every warning an error
    cfg = EstimatorConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(20):
            for name in ("two_stage", "e_als", "ls"):
                sched = make_schedule(TINY, "two_stage" if name == "two_stage" else "e_als")
                est = estimate(name, tiny_frame(kind, sched, seed), sched, cfg,
                               np.random.default_rng(seed))
                if kind != "zero":
                    assert est.failed and est.failure_reason == "non-finite frame"
                    assert est.iterations == 0 and est.op_count == 0
        for name, field in [("two_stage", "tensor"), ("two_stage", "off_stage"), ("e_als", "tensor"), ("ls", "tensor")]:
            _, _, sched, recv = noisy_setup("two_stage" if name == "two_stage" else "e_als", seed=30)
            est = estimate(name, with_nan(recv, field), sched, cfg, np.random.default_rng(31))
            assert est.failed and est.failure_reason == "non-finite frame"


# configs the CLI can build, each run from -30 to 40 dB
TRAFFIC_CONFIGS = {
    "stock": {},
    "m2k1n1l2": dict(
        system=SystemConfig(m_ap=2, k_users=1, n_ris=1, pilot_len=2, off_stage_len=2),
        channel=ChannelModelConfig(ris_rows=1, ris_cols=1),
    ),
    "m2k2n4l2": dict(
        system=SystemConfig(m_ap=2, k_users=2, n_ris=4, pilot_len=2, off_stage_len=2),
        channel=ChannelModelConfig(ris_rows=2, ris_cols=2),
    ),
    "n36_one_path": dict(
        system=SystemConfig(n_ris=36),
        channel=ChannelModelConfig(ris_rows=6, ris_cols=6, n_paths=1),
    ),
    "noiseless": dict(system=SystemConfig(noise_var=0.0)),
    "fixed_geometry": dict(fixed_geometry=True),
    "not_normalized": dict(channel=ChannelModelConfig(normalize_to_direct=False)),
}


@pytest.mark.parametrize("name", sorted(TRAFFIC_CONFIGS))
def test_stock_sweeps_compute_no_eigenvalues_and_no_khatri_rao(name):
    # make_schedule builds only DFT Psi and DFT pilots, so the schedule of
    # every config the CLI runs meets the fit's premise: each update is
    # solved by division from a (T, p) diagonal, every diagonal clears, no
    # p x p Gram and no Khatri-Rao regressor is formed, and pinv_left never
    # runs
    calls = []

    def solves(diag, a_h_rhs, tol):
        x, refused = diagonal_solves(diag, a_h_rhs, tol)
        calls.append((diag.shape, a_h_rhs.shape, refused))
        return x, refused

    cfg = ExperimentConfig(
        snr_grid_db=tuple(range(-30, 41, 10)), trials=20, master_seed=40,
        estimators_enabled=("two_stage", "e_als"), **TRAFFIC_CONFIGS[name],
    )
    khatri_rao = mock.Mock(wraps=ristensor.estimators.khatri_rao)
    pinv_left = mock.Mock(wraps=ristensor.tensor_ops.pinv_left)
    with mock.patch.object(ristensor.estimators, "diagonal_solves", solves), \
            mock.patch.object(ristensor.estimators, "khatri_rao", khatri_rao), \
            mock.patch.object(ristensor.tensor_ops, "pinv_left", pinv_left):
        records = run_experiment(cfg)
    assert len(records) == 2 * 8 * 20 and not any(r.failure_flag for r in records)
    assert calls and not any(len(refused) for *_, refused in calls)
    assert all(len(diag) == 2 and diag == rhs[:2] for diag, rhs, _ in calls)
    assert khatri_rao.call_count == 0 and pinv_left.call_count == 0


# the ALS updates as the paper writes them, from explicit Khatri-Rao
# regressors and the SVD pseudoinverse, for any schedule: the fit must
# match them on the orthogonal ones


def explicit_joint_update(y, psi, x_d, z):
    # pinv_left(KR([1 .. 1 | Psi], [X_d; Z]^T)) against the mode-1
    # unfolding: [H_ua | H_ra]^T as (K_d + N, M)
    known = np.hstack([np.ones((len(psi), len(x_d))), psi])
    return pinv_left(khatri_rao(known, np.vstack([x_d, z]).T)) @ unfold_mode1(y).T


def explicit_z_update(y, psi, x_d, joint):
    # pinv_left(KR(Psi, H_ra)) against the mode-2 unfolding less the direct
    # term (1 (x) H_ua) X_d: Z as (N, L)
    k_d = len(x_d)
    direct = np.tile(joint[:k_d].T, (len(psi), 1)) @ x_d
    return pinv_left(khatri_rao(psi, joint[k_d:].T)) @ (unfold_mode2(y).T - direct)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 8),
    k=st.integers(1, 3),
    extra_l=st.integers(0, 2),
    snr_db=st.floats(-5.0, 30.0),
    joint=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=4, n=25, k=8, extra_l=0, snr_db=10.0, joint=True, seed=0)    # e_als at stock dims
@example(m=4, n=25, k=8, extra_l=0, snr_db=10.0, joint=False, seed=0)   # two_stage's fit
def test_sweep_solves_match_the_explicit_regressors(m, n, k, extra_l, snr_db, joint, seed):
    # the reference for the division: on the DFT schedules of both modes
    # (e_als, and als_ris, two_stage's fit, with no direct block), a noisy
    # synthesized frame, each sweep's joint and Z updates equal the
    # explicit-regressor update from the fit's own previous iterate within
    # rounding, 1e-9 relative, sweep by sweep
    rng = np.random.default_rng(seed)
    l = k + extra_l
    mode = "e_als" if joint else "two_stage"
    system = SystemConfig(m_ap=m, k_users=k, n_ris=n, pilot_len=l, off_stage_len=l, snr_db=snr_db)
    sched = TrainingSchedule(
        pilots=make_pilots(k, l, system.power), ris_phases=make_phase_schedule(n, mode)
    )
    ch = ChannelSet(h_ua=crandn(rng, (m, k)) if joint else np.zeros((m, k)),
                    h_ra=crandn(rng, (m, n)), h_ur=crandn(rng, (n, k)))
    y = synthesize(ch, sched, system, rng).tensor
    x_d = sched.pilots if joint else np.empty((0, l))
    updates = []

    def recorded(diag, a_h_rhs, tol):
        x, refused = diagonal_solves(diag, a_h_rhs, tol)
        updates.append(x[0].copy())
        return x, refused

    init_seed = int(rng.integers(2**32))
    cfg = EstimatorConfig(max_iters=4, conv_threshold=1e-300)
    with mock.patch.object(ristensor.estimators, "diagonal_solves", recorded):
        if joint:
            est = e_als_estimate(ReceiveTensor(tensor=y), sched, cfg, np.random.default_rng(init_seed))
        else:
            est = als_ris(y, sched, cfg, np.random.default_rng(init_seed))
    assert not est.failed and len(updates) == 2 * est.iterations > 0
    # the fit's initial Z, as it draws it
    init = np.random.default_rng(init_seed)
    crandn(init, (m, len(x_d)))
    crandn(init, (m, n))
    z = crandn(init, (n, k)) @ sched.pilots
    for joint_fit, z_fit in zip(updates[::2], updates[1::2]):
        joint_ref = explicit_joint_update(y, sched.ris_phases, x_d, z)
        assert np.linalg.norm(joint_fit - joint_ref) <= 1e-9 * np.linalg.norm(joint_ref)
        z_ref = explicit_z_update(y, sched.ris_phases, x_d, joint_fit)
        assert np.linalg.norm(z_fit - z_ref) <= 1e-9 * np.linalg.norm(z_ref)
        z = z_fit


STACK_KINDS = ("synthesized", "f_ordered", "zero", "one_nan", "scaled_up", "scaled_down")


def stack_frame(kind, ch, sched, system, rng):
    # every kind but f_ordered keeps the synthesized frame's memory layout,
    # C order, as the harness's frames all share it; a Fortran-ordered copy
    # holds the same values in another layout
    recv = synthesize(ch, sched, system, rng)
    assert recv.tensor.flags.c_contiguous
    if kind == "synthesized":
        return recv
    if kind == "f_ordered":
        return ReceiveTensor(
            tensor=np.asfortranarray(recv.tensor),
            off_stage=None if recv.off_stage is None else np.asfortranarray(recv.off_stage),
        )

    def change(a):
        if a is None:
            return None
        a = a.copy(order="K")
        if kind == "zero":
            a[...] = 0.0
        elif kind == "one_nan":
            a.flat[rng.integers(a.size)] = np.nan
        else:
            a *= 1e150 if kind == "scaled_up" else 1e-150
        return a

    return ReceiveTensor(tensor=change(recv.tensor), off_stage=change(recv.off_stage))


def assert_same_estimate(got, want):
    # every field: arrays to the bit, everything else by value and type
    for field in dataclasses.fields(ChannelEstimate):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), field.name
            assert (a.shape, a.dtype) == (b.shape, b.dtype), field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert type(a) is type(b) and a == b, field.name


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(["two_stage", "e_als", "ls"]),
    m=st.integers(1, 3),
    k=st.integers(1, 3),
    extra_l=st.integers(0, 1),
    n=st.integers(1, 5),
    kinds=st.lists(st.sampled_from(STACK_KINDS), min_size=1, max_size=6),
    max_iters=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_fit_equals_each_frame_alone(mode, m, k, extra_l, n, kinds, max_iters, seed):
    # one stacked call on frames of mixed kinds (a zero frame fails in its
    # first Z step, a NaN frame before any solve, a Fortran-ordered frame
    # differs only in layout) returns, for every frame, the estimate of that frame
    # fitted alone, bit for bit: frames leave the stack at the end of the
    # sweep in which they converge or fail without changing the others; ls,
    # whose stack always holds a NaN frame, solves the live frames' stack at
    # once
    rng = np.random.default_rng(seed)
    l = k + extra_l
    system = SystemConfig(m_ap=m, k_users=k, n_ris=n, pilot_len=l, off_stage_len=l, snr_db=5.0)
    sched = TrainingSchedule(
        pilots=make_pilots(k, l, system.power),
        ris_phases=make_phase_schedule(n, "two_stage" if mode == "two_stage" else "e_als"),
        off_pilots=make_pilots(k, l, system.power) if mode == "two_stage" else None,
    )
    if mode == "ls":
        kinds = [*kinds, "one_nan"]
    frames = []
    for kind in kinds:
        ch = ChannelSet(h_ua=crandn(rng, (m, k)), h_ra=crandn(rng, (m, n)),
                        h_ur=crandn(rng, (n, k)))
        frames.append(stack_frame(kind, ch, sched, system, rng))
    cfg = EstimatorConfig(max_iters=max_iters, conv_threshold=1e-6)
    seeds = rng.integers(2**32, size=len(frames))
    if mode == "ls":
        stacked = ls_baseline(stack_of(frames), sched, cfg)
        alone = [ls_baseline(frame, sched, cfg) for frame in frames]
        assert stacked.failed[-1] and stacked.failure_reason[-1] == "non-finite frame"
    else:
        estimator = two_stage_estimate if mode == "two_stage" else e_als_estimate
        rngs = [np.random.default_rng(s) for s in seeds]
        stacked = estimator(stack_of(frames), sched, cfg, rngs)
        alone = [estimator(f, sched, cfg, np.random.default_rng(s)) for f, s in zip(frames, seeds)]
    assert stacked.failed.shape == (len(frames),)
    for j, want in enumerate(alone):
        assert_same_estimate(stacked.row(j), want)


def test_stacked_als_ris_equals_each_frame_alone():
    # every estimator fits its own copy of the caller's stack (the ALS fit
    # drops stopped frames in place from the stack it owns, and two_stage
    # subtracts its direct path there), so the caller's tensor and OFF-stage
    # stacks are not written, which the harness relies on when it hands one
    # e_als stack to e_als and then to ls; and each frame gets its estimate
    # alone, a zero frame's too (it fails in the first Z step of an ALS fit)
    cfg = EstimatorConfig()
    for name in ("als_ris", "two_stage", "e_als", "ls"):
        mode = "e_als" if name in ("e_als", "ls") else "two_stage"
        _, ch, sched, recv = noisy_setup(mode, seed=50)
        if name == "als_ris":
            recv = ReceiveTensor(tensor=recv.tensor - (ch.h_ua @ sched.pilots)[:, :, None])
        parts = (recv.tensor, recv.off_stage)
        zero = ReceiveTensor(*(None if a is None else np.zeros_like(a) for a in parts))
        stack = stack_of([recv, zero, recv])
        stack.tensor[2] *= 2.0
        arrays = [a for a in (stack.tensor, stack.off_stage) if a is not None]
        before = [a.copy() for a in arrays]
        stacked = estimate(name, stack, sched, cfg, [np.random.default_rng(i) for i in range(3)])
        assert stacked.failed.tolist() == [False, name != "ls", False]
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before)), name
        for i in range(3):
            off = None if stack.off_stage is None else stack.off_stage[i]
            row = ReceiveTensor(tensor=stack.tensor[i], off_stage=off)
            want = estimate(name, row, sched, cfg, np.random.default_rng(i))
            assert_same_estimate(stacked.row(i), want)


@pytest.mark.parametrize("name", ["two_stage", "e_als", "ls"])
def test_each_row_of_a_mixed_stack_is_the_single_frame_estimate(name):
    # normal, zero and NaN frames (and for two_stage a frame whose OFF stage
    # alone holds a NaN) in one stack: row j of the stacked estimate equals
    # the single-frame call on frame j in every field, bit for bit and type
    # for type, a failed row's None factors, reason and trace length included
    mode = "e_als" if name in ("e_als", "ls") else "two_stage"
    system, ch, sched, _ = noisy_setup(mode, seed=66)
    frames = [synthesize(ch, sched, system, np.random.default_rng(s)) for s in range(5)]
    parts = (frames[1].tensor, frames[1].off_stage)
    frames[1] = ReceiveTensor(*(None if a is None else np.zeros_like(a) for a in parts))
    frames[2] = with_nan(frames[2], "tensor")
    if mode == "two_stage":
        frames[3] = with_nan(frames[3], "off_stage")
    cfg = EstimatorConfig()
    stacked = estimate(name, stack_of(frames), sched, cfg,
                       [np.random.default_rng(70 + j) for j in range(5)])
    failed = [False, name != "ls", True, mode == "two_stage", False]
    assert stacked.failed.tolist() == failed
    for j, frame in enumerate(frames):
        want = estimate(name, frame, sched, cfg, np.random.default_rng(70 + j))
        assert_same_estimate(stacked.row(j), want)
    if name != "ls":   # the zero frame fails in its first Z step, with no trace
        assert stacked.row(1).iterations == 1 and stacked.row(1).residual_trace == ()


def test_a_stack_needs_one_generator_per_frame():
    # one Generator, not in a list, counts as one generator
    _, _, sched, recv = noisy_setup("two_stage", seed=57)
    stack, rngs = stack_of([recv] * 3), [np.random.default_rng(i) for i in range(2)]
    for name in ("als_ris", "two_stage", "e_als"):
        with pytest.raises(ValueError, match="a stack of 3 frames got 2 generators"):
            estimate(name, stack, sched, EstimatorConfig(), rngs)
        with pytest.raises(ValueError, match="a stack of 2 frames got 1 generators"):
            estimate(name, stack_of([recv] * 2), sched, EstimatorConfig(), rngs[0])


def test_squared_norms_of_a_row_do_not_depend_on_its_stack():
    # numpy's own reductions (einsum, sum) cut a lone row longer than their
    # 8192-element buffer into pieces but reduce a stack's rows whole; the
    # BLAS dot per row gives each row the same bits alone and in a stack
    rng = np.random.default_rng(70)
    for size in (3, 832, 5000):
        rows = crandn(rng, (5, size))
        stacked = ristensor.tensor_ops.sqnorms(rows)
        for i, row in enumerate(rows):
            assert stacked[i] == ristensor.tensor_ops.sqnorms(row[None].copy())[0]


@pytest.mark.parametrize("mode", ["two_stage", "e_als"])
def test_singular_pilots_fail_every_frame_before_any_sweep(mode):
    # pilots X with equal rows have no right pseudoinverse, so h_ur cannot
    # be recovered from Z: every frame fails at set-up, at iteration 0 with
    # no sweep run or counted (two_stage's op_count is its OFF stage alone)
    # and, like every failed estimate, no channel estimate, two_stage's
    # OFF-stage direct path included; SystemConfig requires pilot_len >=
    # k_users, so the schedule is hand-built
    system = SystemConfig(m_ap=2, k_users=2, n_ris=4, pilot_len=2, off_stage_len=2)
    sched = make_schedule(system, mode)
    sched = dataclasses.replace(sched, pilots=np.tile(sched.pilots[:1], (2, 1)))
    ch = draw_channels(ChannelModelConfig(ris_rows=2, ris_cols=2), (2, 2, 4),
                       np.random.default_rng(62))
    frames = stack_of([synthesize(ch, sched, system, np.random.default_rng(s)) for s in range(3)])
    estimator = two_stage_estimate if mode == "two_stage" else e_als_estimate
    stacked = estimator(frames, sched, EstimatorConfig(), [np.random.default_rng(63)] * 3)
    # the OFF stage's K^2 L' + K^3 + M L' K + M K L, each dimension 2
    off_stage = 32 if mode == "two_stage" else 0
    for est in map(stacked.row, range(3)):
        assert est.failed and "singular" in est.failure_reason
        assert est.iterations == 0 and est.residual_trace == ()
        assert est.op_count == off_stage
        assert est.h_ua is None and est.h_ur is None and est.h_ra is None


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 6),
    k=st.integers(1, 8),
    extra_l=st.integers(0, 8),
    n=st.integers(1, 64),
    mode=st.sampled_from(["two_stage", "e_als"]),
    snr_db=st.floats(-3100.0, 30.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=4, k=8, extra_l=0, n=25, mode="e_als", snr_db=-3100.0, seed=0)
@example(m=4, k=8, extra_l=0, n=25, mode="two_stage", snr_db=-3100.0, seed=0)
def test_every_schedule_the_cli_builds_meets_the_premise(m, k, extra_l, n, mode, snr_db, seed):
    # make_schedule's schedules for any system the CLI accepts (K <= L, N
    # up to 64, down to a subnormal pilot power) pass the fit's check
    # without a warning, and the fit runs a sweep rather than refusing them
    l = k + extra_l
    system = SystemConfig(m_ap=m, k_users=k, n_ris=n, pilot_len=l, off_stage_len=l, snr_db=snr_db)
    try:
        sched = make_schedule(system, mode)
    except ValueError:   # two_stage's M L B >= N (M + L), which the CLI checks too
        assume(False)
    rng = np.random.default_rng(seed)
    ch = ChannelSet(h_ua=crandn(rng, (m, k)), h_ra=crandn(rng, (m, n)), h_ur=crandn(rng, (n, k)))
    recv = synthesize(ch, sched, system, rng)
    estimator = two_stage_estimate if mode == "two_stage" else e_als_estimate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = estimator(recv, sched, EstimatorConfig(max_iters=1), rng)
    assert not est.failure_reason.startswith("refused schedule") and est.iterations == 1


def _refused_schedule(kind, sched, rng):
    # the e_als schedule (pilots X and [1 | Psi] = DFT(26) at stock) made to
    # miss the fit's premise one way, and the reason it is refused for
    psi, pilots = sched.ris_phases.copy(), sched.pilots.copy()
    if kind == "random":      # random unit-modulus Psi
        psi = np.exp(2j * np.pi * rng.random(psi.shape))
    elif kind == "constant":  # all ones: rank one
        psi = np.ones_like(psi)
    elif kind == "tall":      # DFT columns, B > N + 1 rows
        psi = dft_matrix(len(psi) + 3)[:, 1 : psi.shape[1] + 1]
    elif kind == "moved":     # one entry moved by 1e-10
        psi[len(psi) // 2, -1] += 1e-10
    elif kind == "scaled_column":   # orthogonal, but one column's norm is not B
        psi[:, 1] *= 1e-6
    elif kind == "pilots":    # random pilots: X X^H is no multiple of I
        pilots = crandn(rng, pilots.shape)
    else:                     # orthogonal pilot rows of unequal norms
        pilots[-1] *= 2.0
    reason = PILOT_REFUSAL if kind in ("pilots", "unequal_pilots") else PSI_REFUSAL
    return TrainingSchedule(pilots=pilots, ris_phases=psi), reason


@pytest.mark.parametrize(
    "kind", ["random", "constant", "tall", "moved", "scaled_column", "pilots", "unequal_pilots"]
)
def test_a_non_orthogonal_schedule_fails_every_frame(kind):
    # a schedule that is not the orthogonal kind make_schedule builds is
    # refused once per call, not solved another way: every frame of the
    # stack fails with the reason, at iteration 0 with op_count 0 and no
    # trace, without a warning, and no update, regressor or pseudoinverse
    # of the sweep is computed
    _, ch, sched, _ = noisy_setup("e_als", seed=58)
    rng = np.random.default_rng(59)
    sched, reason = _refused_schedule(kind, sched, rng)
    system = SystemConfig(snr_db=10.0)
    frames = stack_of([synthesize(ch, sched, system, rng) for _ in range(3)])
    solves = mock.Mock(wraps=diagonal_solves)
    pinv = mock.Mock(wraps=ristensor.tensor_ops.pinv_left)
    with warnings.catch_warnings(), \
            mock.patch.object(ristensor.estimators, "diagonal_solves", solves), \
            mock.patch.object(ristensor.tensor_ops, "pinv_left", pinv):
        warnings.simplefilter("error")
        ests = e_als_estimate(frames, sched, EstimatorConfig(), [np.random.default_rng(i) for i in range(3)])
    assert solves.call_count == 0 and pinv.call_count == 0
    for est in map(ests.row, range(3)):
        assert est.failed and est.failure_reason == reason
        assert est.iterations == 0 and est.op_count == 0 and est.residual_trace == ()
        assert est.h_ua is None and est.h_ra is None and est.h_ur is None


@pytest.mark.parametrize("kind", ["random"])
def test_an_uncertified_schedule_sends_every_frame_to_pinv_left(kind):
    # a random unit-modulus Psi certifies no sweep Gram: the joint Gram of
    # its regressor KR([1 | Psi], [X_d; Z]^T) is far from diagonal, so a
    # division by its diagonal is not its solution.  Such a schedule is
    # left to pinv_left, the paper's explicit update, which solves the joint
    # and Z steps of every frame; the fit itself refuses it, failing every
    # frame with the reason
    _, ch, sched, _ = noisy_setup("e_als", seed=58)
    rng = np.random.default_rng(59)
    sched, reason = _refused_schedule(kind, sched, rng)
    psi, x_d = sched.ris_phases, sched.pilots
    frames = [synthesize(ch, sched, SystemConfig(snr_db=10.0), rng) for _ in range(3)]
    z = crandn(rng, (psi.shape[1], len(x_d))) @ x_d
    a = khatri_rao(np.hstack([np.ones((len(psi), len(x_d))), psi]), np.vstack([x_d, z]).T)
    gram = a.conj().T @ a
    scale = np.sqrt(gram.diagonal().real)
    coupling = np.abs(gram) / np.outer(scale, scale)
    np.fill_diagonal(coupling, 0.0)
    assert coupling.sum(axis=1).max() > 1.0
    for frame in frames:
        joint = explicit_joint_update(frame.tensor, psi, x_d, z)
        divided = a.conj().T @ unfold_mode1(frame.tensor).T / scale[:, None] ** 2
        assert np.linalg.norm(divided - joint) > 0.1 * np.linalg.norm(joint)
        assert np.isfinite(explicit_z_update(frame.tensor, psi, x_d, joint)).all()
    ests = e_als_estimate(stack_of(frames), sched, EstimatorConfig(), [np.random.default_rng(i) for i in range(3)])
    assert ests.failed.all() and all(r == reason for r in ests.failure_reason)


def test_sweep_op_count_adds_the_svd_fallback_of_every_gram():
    # the SVD fallback that ran on every Gram of a random unit-modulus Psi
    # (434,688 ops per e_als sweep at stock sizes) is deleted: that schedule
    # is refused before any sweep, so its count stays 0 however many sweeps
    # are allowed and pinv_left never runs, while the stock DFT schedule's
    # count adds the division path's 6,870 per sweep and no fallback
    _, ch, dft_sched, _ = noisy_setup("e_als", seed=51)
    system = SystemConfig(snr_db=10.0)
    rng = np.random.default_rng(52)
    random_sched, _ = _refused_schedule("random", dft_sched, rng)
    for sched, per_sweep in ((random_sched, 0), (dft_sched, 6_870)):
        recv = synthesize(ch, sched, system, rng)
        ops = []
        for sweeps in (1, 2):
            cfg = EstimatorConfig(max_iters=sweeps, conv_threshold=1e-300)
            pinv_left = mock.Mock(wraps=ristensor.tensor_ops.pinv_left)
            with mock.patch.object(ristensor.tensor_ops, "pinv_left", pinv_left):
                est = e_als_estimate(recv, sched, cfg, np.random.default_rng(53))
            assert est.failed == (per_sweep == 0) and pinv_left.call_count == 0
            ops.append(est.op_count)
        assert ops[1] - ops[0] == per_sweep and (ops[0] == 0) == (per_sweep == 0)


def test_only_the_frame_with_a_zero_factor_column_leaves_the_division():
    # a zero frame fits H_ra = 0 in its first joint step, so the diagonal of
    # its Z step is zero: that frame alone is refused there and fails, with
    # the Z step's reason, while the frames around it stay divided
    _, _, sched, recv = noisy_setup("e_als", seed=60)
    frames = stack_of([recv, ReceiveTensor(tensor=np.zeros_like(recv.tensor)), recv])
    calls = []

    def solves(diag, a_h_rhs, tol):
        x, refused = diagonal_solves(diag, a_h_rhs, tol)
        calls.append(list(refused))
        return x, refused

    with mock.patch.object(ristensor.estimators, "diagonal_solves", solves):
        ests = e_als_estimate(frames, sched, EstimatorConfig(), [np.random.default_rng(61)] * 3)
    assert calls[:2] == [[], [1]] and not any(calls[2:])
    assert ests.failed.tolist() == [False, True, False]
    assert ests.failure_reason[1] == "singular Z step: Gram diagonal from 0.000e+00 to 0.000e+00"
    assert ests.iterations[1] == 1


@pytest.mark.parametrize("estimator", [two_stage_estimate, e_als_estimate])
def test_a_solve_that_raises_fails_its_frame_alone(estimator):
    # the second joint step reports slot 1's diagonal as not clearing and
    # leaves its row NaN: that frame fails in sweep 2 with its first sweep's
    # trace, its previous iterate, put back, keeps the NaN out of every later
    # solve, and the frames around it keep the estimates of the unmocked call
    mode = "two_stage" if estimator is two_stage_estimate else "e_als"
    system, ch, sched, _ = noisy_setup(mode, seed=64, snr_db=0.0)
    frames = stack_of([synthesize(ch, sched, system, np.random.default_rng(s)) for s in range(3)])
    cfg = EstimatorConfig()

    def fit():
        return estimator(frames, sched, cfg, [np.random.default_rng(65 + i) for i in range(3)])

    calls = []

    def solves(diag, a_h_rhs, tol):
        assert np.isfinite(diag).all() and np.isfinite(a_h_rhs).all()
        x, refused = diagonal_solves(diag, a_h_rhs, tol)
        calls.append(len(diag))
        if len(calls) == 3:   # joint, Z, then the second sweep's joint step
            x[1] = np.nan
            refused = [1]
        return x, refused

    want = fit()
    assert (want.iterations > 2).all()
    with mock.patch.object(ristensor.estimators, "diagonal_solves", solves):
        got = fit()
    assert calls[:3] == [3, 3, 3]
    failed = got.row(1)
    assert failed.failed and failed.failure_reason.startswith("singular joint step: Gram diagonal from")
    assert failed.iterations == 2
    assert failed.residual_trace == want.row(1).residual_trace[:1]
    assert failed.h_ua is None and failed.h_ur is None and failed.h_ra is None
    for i in (0, 2):
        assert_same_estimate(got.row(i), want.row(i))


def test_resolve_scaling_inverts_synthetic_ambiguity():
    rng = np.random.default_rng(24)
    ch = draw_channels(ChannelModelConfig(), DIMS, rng)
    delta = crandn(rng, 25)
    est = ChannelEstimate(h_ra=ch.h_ra * delta[None, :], h_ur=ch.h_ur / delta[:, None])
    fixed = resolve_scaling(est, ch)
    np.testing.assert_allclose(fixed.h_ra, ch.h_ra, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(fixed.h_ur, ch.h_ur, rtol=1e-12, atol=1e-14)
    assert fixed.scaling_fallback_cols == ()


def test_resolve_scaling_identity_and_cascade_invariance():
    rng = np.random.default_rng(25)
    ch = draw_channels(ChannelModelConfig(), DIMS, rng)
    est = ChannelEstimate(h_ra=ch.h_ra.copy(), h_ur=ch.h_ur.copy())
    fixed = resolve_scaling(est, ch)
    np.testing.assert_allclose(fixed.h_ra, ch.h_ra, rtol=1e-13)
    noisy = ChannelEstimate(h_ra=crandn(rng, (4, 25)), h_ur=crandn(rng, (25, 8)))
    fixed = resolve_scaling(noisy, ch)
    before = noisy.h_ra @ noisy.h_ur
    after = fixed.h_ra @ fixed.h_ur
    assert np.linalg.norm(after - before) <= 1e-12 * np.linalg.norm(before)


def test_resolve_scaling_skips_unusable_columns():
    rng = np.random.default_rng(26)
    ch = draw_channels(ChannelModelConfig(), DIMS, rng)
    h_ra = ch.h_ra.copy()
    h_ra[:, 3] = 0.0   # no reference information for this column
    truth = ChannelSet(h_ua=ch.h_ua, h_ra=h_ra, h_ur=ch.h_ur)
    delta = crandn(rng, 25)
    est = ChannelEstimate(h_ra=ch.h_ra * delta[None, :], h_ur=ch.h_ur / delta[:, None])
    fixed = resolve_scaling(est, truth)
    assert fixed.scaling_fallback_cols == (3,)
    # the unusable column passes through untouched, the rest are resolved
    np.testing.assert_allclose(fixed.h_ra[:, 3], est.h_ra[:, 3], rtol=1e-14)
    keep = [c for c in range(25) if c != 3]
    np.testing.assert_allclose(fixed.h_ra[:, keep], ch.h_ra[:, keep], rtol=1e-12, atol=1e-14)


def test_resolve_scaling_is_robust_to_a_tiny_reference_entry():
    # a near-zero entry in the true matrix must not poison the column scale
    rng = np.random.default_rng(28)
    ch = draw_channels(ChannelModelConfig(), DIMS, rng)
    h_ra = ch.h_ra.copy()
    h_ra[0, 5] = 1e-9
    truth = ChannelSet(h_ua=ch.h_ua, h_ra=h_ra, h_ur=ch.h_ur)
    est = ChannelEstimate(
        h_ra=h_ra + 1e-3 * crandn(rng, (4, 25)), h_ur=ch.h_ur + 1e-3 * crandn(rng, (25, 8))
    )
    fixed = resolve_scaling(est, truth)
    assert nmse(fixed.h_ra, h_ra) < 1e-4
    assert fixed.scaling_fallback_cols == ()


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 8),
    unusable=st.lists(st.sampled_from(["zero_truth", "orthogonal"]), max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_resolve_scaling_matches_the_per_column_fit(m, n, unusable, seed):
    # the column fits computed together agree with one np.vdot pair per
    # column to the rounding of an m-term sum, and skip the same columns
    rng = np.random.default_rng(seed)
    h_ra = crandn(rng, (m, n))
    est_ra = crandn(rng, (m, n))
    for col, kind in zip(rng.permutation(n), unusable):
        if kind == "zero_truth":
            h_ra[:, col] = 0.0
        else:
            est_ra[:, col] = 0.0
    truth = ChannelSet(h_ua=crandn(rng, (m, 1)), h_ra=h_ra, h_ur=crandn(rng, (n, 1)))
    est = ChannelEstimate(h_ra=est_ra, h_ur=crandn(rng, (n, 1)))
    lam, skipped = np.ones(n, dtype=complex), []
    for col in range(n):
        den = float(np.real(np.vdot(h_ra[:, col], h_ra[:, col])))
        num = np.vdot(h_ra[:, col], est_ra[:, col])
        if den == 0.0 or num == 0:
            skipped.append(col)
        else:
            lam[col] = num / den
    fixed = resolve_scaling(est, truth)
    assert fixed.scaling_fallback_cols == tuple(skipped)
    assert all(type(col) is int for col in fixed.scaling_fallback_cols)
    assert np.array_equal(fixed.h_ra[:, skipped], est_ra[:, skipped])
    # lambda's rounding, about m eps sum_i |t_i| |e_i| / ||t||^2 for the
    # sums, plus that of the quotient and of the product applying it
    eps = np.finfo(float).eps
    den = np.maximum((np.abs(h_ra) ** 2).sum(axis=0), np.finfo(float).tiny)
    slack = 4 * m * eps * (np.abs(h_ra) * np.abs(est_ra)).sum(axis=0) / den + 4 * eps * np.abs(lam)
    assert np.all(np.abs(fixed.h_ur - est.h_ur * lam[:, None]) <= slack[:, None] * np.abs(est.h_ur))


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 8),
    k=st.integers(1, 5),
    spread_exp=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonal_scaling_changes_no_score(m, n, k, spread_exp, seed):
    # (H_ra Delta, Delta^-1 H_ur) for a random nonsingular diagonal Delta,
    # magnitudes over +-spread_exp decades and random phases: the cascade,
    # the aggregate NMSE and the resolved factors are those of (H_ra, H_ur)
    rng = np.random.default_rng(seed)
    factors = [dict(h_ua=crandn(rng, (m, k)), h_ra=crandn(rng, (m, n)), h_ur=crandn(rng, (n, k)))
               for _ in range(2)]
    truth, est = ChannelSet(**factors[0]), ChannelEstimate(**factors[1])
    delta = 10.0 ** rng.uniform(-spread_exp, spread_exp, n) * np.exp(2j * np.pi * rng.random(n))
    warped = dataclasses.replace(est, h_ra=est.h_ra * delta, h_ur=est.h_ur / delta[:, None])
    assert np.linalg.norm(warped.cascade - est.cascade) <= 1e-12 * np.linalg.norm(est.cascade)
    expected = aggregate_vector_nmse(est, truth)
    assert aggregate_vector_nmse(warped, truth) == pytest.approx(expected, rel=1e-12)
    fixed, fixed_warped = resolve_scaling(est, truth), resolve_scaling(warped, truth)
    assert fixed_warped.scaling_fallback_cols == fixed.scaling_fallback_cols == ()
    for got, want, axis in ((fixed_warped.h_ra, fixed.h_ra, 0), (fixed_warped.h_ur, fixed.h_ur, 1)):
        err = np.linalg.norm(got - want, axis=axis)
        assert np.all(err <= 1e-10 * np.linalg.norm(want, axis=axis))


def test_aggregate_nmse_matches_between_decoupled_and_theta():
    # both parameterizations describe the same stacked vector
    cfg, ch, sched, recv = noiseless_setup("e_als", seed=27)
    theta_est = ls_baseline(recv, sched, EstimatorConfig())
    decoupled = ChannelEstimate(h_ua=ch.h_ua, h_ra=ch.h_ra, h_ur=ch.h_ur)
    assert aggregate_vector_nmse(decoupled, ch) == pytest.approx(0.0, abs=1e-12)
    assert aggregate_vector_nmse(theta_est, ch) == pytest.approx(0.0, abs=1e-12)
