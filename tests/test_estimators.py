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
from ristensor.tensor_ops import SingularMatrixError, certified_gram_solves, crandn, pinv_right

DIMS = (4, 8, 25)


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
    ests = two_stage_estimate(stack_of([recv] * 3), sched, EstimatorConfig(),
                              [np.random.default_rng(s) for s in range(3)])
    for est in ests:
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
    # constant phase rows collapse the Khatri-Rao factor rank
    sched = TrainingSchedule(pilots=make_pilots(8, 8, 1.0), ris_phases=np.ones((25, 25)))
    q = np.zeros((4, 8, 25), dtype=complex)
    q[0, 0, 0] = 1.0
    est = als_ris(q, sched, EstimatorConfig(), np.random.default_rng(8))
    assert est.failed
    assert est.iterations == 1
    assert est.h_ra is None
    assert "singular" in est.failure_reason


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
    [("two_stage", two_stage_estimate, 23_850), ("e_als", e_als_estimate, 27_570)],
    ids=["two_stage", "e_als"],
)
def test_sweep_op_count_is_the_gram_path_cost(mode, estimator, expected):
    # the DFT schedules certify every sweep Gram, so both steps solve by
    # division and no Gram is formed.  two_stage (M=4, L=8, B=N=25, K_d=0,
    # p=25): joint step N L + N + N L M + p M = 1,125, Z step N M + N +
    # N L M + N L = 1,125 (an empty direct block has no direct term),
    # residual M L N + M L N B + M L B = 21,600: 23,850.  e_als (B=26,
    # K_d=8, p=33): joint step 1,157, Z step 3,725 (its direct term
    # N M K_d + N K_d L + N L is 2,600), residual 22,688: 27,570
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
    # residual: KR(H_ra, Z^T), its product with Psi^T, direct term, squared norm
    residual = m * l * n + m * l * n * b + m * k_d * l + m * l * b
    per_sweep = joint + z_step + residual
    assert per_sweep == expected
    ops = []
    for sweeps in (1, 2):
        est_cfg = EstimatorConfig(max_iters=sweeps, conv_threshold=1e-300)
        est = estimator(recv, sched, est_cfg, np.random.default_rng(24))
        assert est.iterations == sweeps and not est.converged
        ops.append(est.op_count)
    assert ops[1] - ops[0] == per_sweep


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
    # every config the CLI runs certifies every sweep Gram: each update is
    # solved by division from a (T, p) diagonal, no p x p Gram and no
    # Khatri-Rao regressor is formed, and pinv_left never runs
    calls = []

    def solves(diag, a_h_rhs, regression, coupling, tol):
        x, divided, errors = certified_gram_solves(diag, a_h_rhs, regression, coupling, tol)
        calls.append((diag.shape, a_h_rhs.shape, divided))
        return x, divided, errors

    cfg = ExperimentConfig(
        snr_grid_db=tuple(range(-30, 41, 10)), trials=20, master_seed=40,
        estimators_enabled=("two_stage", "e_als"), **TRAFFIC_CONFIGS[name],
    )
    khatri_rao = mock.Mock(wraps=ristensor.estimators.khatri_rao)
    pinv_left = mock.Mock(wraps=ristensor.tensor_ops.pinv_left)
    with mock.patch.object(ristensor.estimators, "certified_gram_solves", solves), \
            mock.patch.object(ristensor.estimators, "khatri_rao", khatri_rao), \
            mock.patch.object(ristensor.tensor_ops, "pinv_left", pinv_left):
        records = run_experiment(cfg)
    assert len(records) == 2 * 8 * 20 and not any(r.failure_flag for r in records)
    assert calls and all(divided.all() for *_, divided in calls)
    assert all(len(diag) == 2 and diag == rhs[:2] for diag, rhs, _ in calls)
    assert khatri_rao.call_count == 0 and pinv_left.call_count == 0


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 5),
    k=st.integers(1, 3),
    extra_l=st.integers(0, 2),
    extra_b=st.integers(0, 3),
    joint=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_solves_match_the_explicit_regressors(m, n, k, extra_l, extra_b, joint, seed):
    # random non-DFT Psi and pilots, a random frame, and the sweep's own Z,
    # H_ra and H_ua: every Gram diagonal and contracted right-hand side a
    # sweep passes equals the diagonal of a^H a and a^H rhs of the
    # regressor its fallback forms, and the scaled off-diagonal of a^H a is
    # within the call's coupling, with (e_als) and without (als_ris,
    # K_d = 0) a direct block
    rng = np.random.default_rng(seed)
    l, b = k + extra_l, n + k + extra_b
    sched = TrainingSchedule(pilots=crandn(rng, (k, l)), ris_phases=crandn(rng, (b, n)))
    recv = ReceiveTensor(tensor=crandn(rng, (m, l, b)))
    seen = []

    def checked(diag, a_h_rhs, regression, coupling, tol=1e-12):
        for i, d in enumerate(diag):
            a, rhs = regression(i)
            gram = a.conj().T @ a
            for got, want in ((a_h_rhs[i], a.conj().T @ rhs), (d, gram.diagonal().real)):
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            scaled = np.abs(gram) / np.sqrt(np.outer(d, d))
            np.fill_diagonal(scaled, 0.0)
            assert scaled.sum(axis=1).max() <= coupling * (1 + 1e-12) + 1e-12
            seen.append(a.shape[1])
        return certified_gram_solves(diag, a_h_rhs, regression, coupling, tol)

    cfg = EstimatorConfig(max_iters=3, conv_threshold=1e-300)
    with mock.patch.object(ristensor.estimators, "certified_gram_solves", checked):
        if joint:
            est = e_als_estimate(recv, sched, cfg, rng)
        else:
            est = als_ris(recv.tensor, sched, cfg, rng)
    k_d = k if joint else 0
    assert seen[:2] == [k_d + n, n]
    assert len(seen) == 2 * est.iterations or est.failed


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
    for name in ("h_ua", "h_ra", "h_ur", "theta"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True), name
    for name in ("iterations", "converged", "op_count", "residual_trace", "failed",
                 "failure_reason"):
        assert getattr(got, name) == getattr(want, name), name


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
        assert stacked[-1].failed and stacked[-1].failure_reason == "non-finite frame"
    else:
        estimator = two_stage_estimate if mode == "two_stage" else e_als_estimate
        rngs = [np.random.default_rng(s) for s in seeds]
        stacked = estimator(stack_of(frames), sched, cfg, rngs)
        alone = [estimator(f, sched, cfg, np.random.default_rng(s)) for f, s in zip(frames, seeds)]
    assert len(stacked) == len(frames)
    for got, want in zip(stacked, alone):
        assert_same_estimate(got, want)


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
        assert len(stacked) == 3
        assert stacked[1].failed == (name != "ls") and not stacked[0].failed
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before)), name
        for i, got in enumerate(stacked):
            off = None if stack.off_stage is None else stack.off_stage[i]
            row = ReceiveTensor(tensor=stack.tensor[i], off_stage=off)
            assert_same_estimate(got, estimate(name, row, sched, cfg, np.random.default_rng(i)))


def test_a_stack_needs_one_generator_per_frame():
    _, _, sched, recv = noisy_setup("two_stage", seed=57)
    stack, rngs = stack_of([recv] * 3), [np.random.default_rng(i) for i in range(2)]
    for name in ("als_ris", "two_stage", "e_als"):
        with pytest.raises(ValueError, match="a stack of 3 frames got 2 generators"):
            estimate(name, stack, sched, EstimatorConfig(), rngs)


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
    ests = estimator(frames, sched, EstimatorConfig(), [np.random.default_rng(63)] * 3)
    # the OFF stage's K^2 L' + K^3 + M L' K + M K L, each dimension 2
    off_stage = 32 if mode == "two_stage" else 0
    for est in ests:
        assert est.failed and "singular" in est.failure_reason
        assert est.iterations == 0 and est.residual_trace == ()
        assert est.op_count == off_stage
        assert est.h_ua is None and est.h_ur is None and est.h_ra is None


def test_sweep_op_count_adds_the_svd_fallback_of_every_gram():
    # a random unit-modulus Psi certifies no sweep Gram, so every step forms
    # its regressor for pinv_left.  Per e_als sweep (M=4, L=8, B=26, N=25,
    # K_d=8, p=33) that is the stock 27,570 less the two divisions, p M =
    # 132 and N L = 200, plus the joint fallback B L p + (p^2 B L + p^3) +
    # p B L M = 296,769 and the Z-step fallback B M N + B M K_d L +
    # (N^2 B M + N^3) + N B M L = 110,681: 434,688
    _, ch, _, _ = noisy_setup("e_als", seed=51)
    system = SystemConfig(snr_db=10.0)
    rng = np.random.default_rng(52)
    sched = TrainingSchedule(
        pilots=make_pilots(8, 8, system.power),
        ris_phases=np.exp(2j * np.pi * rng.random((26, 25))),
    )
    recv = synthesize(ch, sched, system, rng)
    ops = []
    for sweeps in (1, 2):
        cfg = EstimatorConfig(max_iters=sweeps, conv_threshold=1e-300)
        pinv_left = mock.Mock(wraps=ristensor.tensor_ops.pinv_left)
        with mock.patch.object(ristensor.tensor_ops, "pinv_left", pinv_left):
            est = e_als_estimate(recv, sched, cfg, np.random.default_rng(53))
        assert not est.failed and est.iterations == sweeps
        assert pinv_left.call_count == 2 * sweeps
        ops.append(est.op_count)
    assert ops[1] - ops[0] == 434_688


def test_sweep_op_count_adds_the_pinv_fallback():
    # a Psi column scaled by 1e-6 leaves the schedule certified (its
    # coupling is scale-free) but puts the joint Gram's diagonal ratio near
    # 1e-12, below the division's 1e-8 but above pinv_tol's square, so
    # pinv_left solves the joint step from its regressor (the Z step's H_ra
    # column grows to match, and its diagonal stays clear: the division);
    # so the tally is the 27,570 of a stock e_als sweep less its joint
    # division, p M = 132 (p=33), that is 27,438, plus the regressor,
    # pseudoinverse and apply of each pinv_left
    _, ch, _, _ = noisy_setup("e_als", seed=54)
    system = SystemConfig(snr_db=10.0)
    rng = np.random.default_rng(55)
    psi = make_phase_schedule(25, "e_als").copy()
    psi[:, 1] *= 1e-6
    sched = TrainingSchedule(pilots=make_pilots(8, 8, system.power), ris_phases=psi)
    recv = synthesize(ch, sched, system, rng)
    m, l, b, n, k = 4, 8, 26, 25, 8
    ops, extra = [], []
    for sweeps in (1, 2):
        cfg = EstimatorConfig(max_iters=sweeps, conv_threshold=1e-300)
        pinv_left = mock.Mock(wraps=ristensor.tensor_ops.pinv_left)
        with mock.patch.object(ristensor.tensor_ops, "pinv_left", pinv_left):
            est = e_als_estimate(recv, sched, cfg, np.random.default_rng(56))
        assert not est.failed and est.iterations == sweeps
        cost = 0
        for call in pinv_left.call_args_list:
            rows, cols = call.args[0].shape
            if cols == n:   # Z step: KR(Psi, H_ra), its direct term, pinv, apply
                cost += b * m * n + b * m * k * l + cols * cols * rows + cols**3 + cols * rows * l
            else:           # joint step: [KR(1, X^T) | KR(Psi, Z^T)], pinv, apply
                cost += rows * cols + cols * cols * rows + cols**3 + cols * rows * m
        assert pinv_left.call_count >= sweeps
        ops.append(est.op_count)
        extra.append(cost)
    assert ops[1] - ops[0] == 27_438 + extra[1] - extra[0]


def _recording_solves(calls):
    # certified_gram_solves that records each call's coupling and routes
    def solves(diag, a_h_rhs, regression, coupling, tol):
        x, divided, errors = certified_gram_solves(diag, a_h_rhs, regression, coupling, tol)
        calls.append((coupling, divided))
        return x, divided, errors

    return solves


@pytest.mark.parametrize("kind", ["random", "constant"])
def test_an_uncertified_schedule_sends_every_frame_to_pinv_left(kind):
    # a random unit-modulus Psi, or a constant one (each scaled entry of its
    # Gram is 1), has a coupling above sqrt(eps): every update of every
    # frame in the stack goes to pinv_left, which solves the random one and
    # finds the constant one singular
    _, ch, _, _ = noisy_setup("e_als", seed=58)
    system = SystemConfig(snr_db=10.0)
    rng = np.random.default_rng(59)
    psi = np.exp(2j * np.pi * rng.random((26, 25))) if kind == "random" else np.ones((26, 25))
    sched = TrainingSchedule(pilots=make_pilots(8, 8, system.power), ris_phases=psi)
    frames = stack_of([synthesize(ch, sched, system, rng) for _ in range(3)])
    calls = []
    pinv_left = mock.Mock(wraps=ristensor.tensor_ops.pinv_left)
    cfg = EstimatorConfig(max_iters=2, conv_threshold=1e-300)
    solves = _recording_solves(calls)
    with mock.patch.object(ristensor.estimators, "certified_gram_solves", solves), \
            mock.patch.object(ristensor.tensor_ops, "pinv_left", pinv_left):
        ests = e_als_estimate(frames, sched, cfg, [np.random.default_rng(i) for i in range(3)])
    assert calls and all(c > np.sqrt(np.finfo(float).eps) for c, _ in calls)
    assert not any(divided.any() for _, divided in calls)
    assert pinv_left.call_count == sum(len(divided) for _, divided in calls)
    if kind == "random":
        assert not any(e.failed for e in ests) and len(calls) == 4
    else:
        assert all(e.failed and "singular" in e.failure_reason for e in ests)


def test_only_the_frame_with_a_zero_factor_column_leaves_the_division():
    # a zero frame fits H_ra = 0 in its first joint step, so the diagonal of
    # its Z step is zero: that frame alone goes to pinv_left, which finds it
    # singular, while the frames around it stay divided
    _, _, sched, recv = noisy_setup("e_als", seed=60)
    frames = stack_of([recv, ReceiveTensor(tensor=np.zeros_like(recv.tensor)), recv])
    calls = []
    pinv_left = mock.Mock(wraps=ristensor.tensor_ops.pinv_left)
    solves = _recording_solves(calls)
    with mock.patch.object(ristensor.estimators, "certified_gram_solves", solves), \
            mock.patch.object(ristensor.tensor_ops, "pinv_left", pinv_left):
        ests = e_als_estimate(frames, sched, EstimatorConfig(), [np.random.default_rng(61)] * 3)
    assert [list(divided) for _, divided in calls[:2]] == [[True] * 3, [True, False, True]]
    assert all(divided.all() for _, divided in calls[2:]) and pinv_left.call_count == 1
    assert ests[1].failed and "singular" in ests[1].failure_reason
    assert not ests[0].failed and not ests[2].failed


@pytest.mark.parametrize("estimator", [two_stage_estimate, e_als_estimate])
def test_a_solve_that_raises_fails_its_frame_alone(estimator):
    # the second joint step reports slot 1's solve as raised and leaves its
    # row NaN: that frame fails in sweep 2 with its first sweep's trace,
    # its previous iterate, put back, keeps the NaN out of every later solve,
    # and the frames around it keep the estimates of the unmocked call
    mode = "two_stage" if estimator is two_stage_estimate else "e_als"
    system, ch, sched, _ = noisy_setup(mode, seed=64, snr_db=0.0)
    frames = stack_of([synthesize(ch, sched, system, np.random.default_rng(s)) for s in range(3)])
    cfg = EstimatorConfig()

    def fit():
        return estimator(frames, sched, cfg, [np.random.default_rng(65 + i) for i in range(3)])

    calls = []

    def solves(diag, a_h_rhs, regression, coupling, tol):
        assert np.isfinite(diag).all() and np.isfinite(a_h_rhs).all()
        x, divided, errors = certified_gram_solves(diag, a_h_rhs, regression, coupling, tol)
        calls.append(len(diag))
        if len(calls) == 3:   # joint, Z, then the second sweep's joint step
            x[1] = np.nan
            errors = {1: SingularMatrixError("forced")}
        return x, divided, errors

    want = fit()
    assert all(est.iterations > 2 for est in want)
    with mock.patch.object(ristensor.estimators, "certified_gram_solves", solves):
        got = fit()
    assert calls[:3] == [3, 3, 3]
    assert got[1].failed and got[1].failure_reason == "forced"
    assert got[1].iterations == 2
    assert got[1].residual_trace == want[1].residual_trace[:1]
    assert got[1].h_ua is None and got[1].h_ur is None and got[1].h_ra is None
    for i in (0, 2):
        assert_same_estimate(got[i], want[i])


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
