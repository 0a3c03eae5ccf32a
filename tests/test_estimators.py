import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ristensor.estimators
from ristensor.channels import ChannelModelConfig, ChannelSet, draw_channels
from ristensor.estimators import (
    ChannelEstimate,
    EstimatorConfig,
    StackedLsSolver,
    als_ris,
    e_als_estimate,
    ls_baseline,
    ls_direct_path,
    resolve_scaling,
    two_stage_estimate,
)
from ristensor.metrics import aggregate_vector_nmse, nmse, stacked_parameter_vector
from ristensor.signals import (
    ReceiveTensor,
    SystemConfig,
    TrainingSchedule,
    make_pilots,
    make_schedule,
    synthesize,
)
from ristensor.tensor_ops import SingularMatrixError, certified_gram_solve, crandn

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


def test_ls_direct_path_recovers_exactly():
    rng = np.random.default_rng(0)
    h = crandn(rng, (4, 8))
    x_bar = make_pilots(8, 8, 2.0)
    est = ls_direct_path(h @ x_bar, x_bar)
    assert nmse(est, h) <= 1e-10
    # DFT rows make the pseudoinverse a scaled hermitian transpose
    np.testing.assert_allclose(est, (h @ x_bar) @ x_bar.conj().T / (8 * 2.0), atol=1e-10)
    np.testing.assert_array_equal(ls_direct_path(np.zeros((4, 8)), x_bar), np.zeros((4, 8)))


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
    assert est.failure_iteration == 1
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
    [("two_stage", two_stage_estimate, 72_600), ("e_als", e_als_estimate, 100_356)],
)
def test_sweep_op_count_is_the_gram_path_cost(mode, estimator, expected):
    cfg, ch, sched, recv = noisy_setup(mode, seed=23)
    m, l, b = recv.tensor.shape
    k, n = sched.pilots.shape[0], sched.ris_phases.shape[1]
    k_d = k if mode == "e_als" else 0
    p = k_d + n
    # joint step: factor Grams X_d* Z^T and Z* Z^T, Hadamard products,
    # right-hand side from W, ||C||_F, LU factorization (p^3), triangular solves
    joint = p * n * l + p * n + n * l * m + k_d * n + p**3 + p * p * m
    # Z step: H_ra^H H_ra, Hadamard product, right-hand side from W, direct
    # term H_ra^H H_ua X_d scaled by 1^T Psi, LU, triangular solves
    z_step = n * n * m + n * n + n * l * m + n * m * k_d + n * k_d * l + n * l + n**3 + n * n * l
    # residual: model frame, direct term, squared norm
    residual = b * m * n + b * m * n * l + m * k_d * l + m * l * b
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
    assert solver.rows == solver.cols == 832


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
    theta = StackedLsSolver(sched, m).solve(recv)
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


def estimate(name, recv, sched, cfg, seed):
    if name == "two_stage":
        return two_stage_estimate(recv, sched, cfg, np.random.default_rng(seed))
    if name == "e_als":
        return e_als_estimate(recv, sched, cfg, np.random.default_rng(seed))
    return ls_baseline(recv, sched, cfg)


@pytest.mark.parametrize("kind", ["one_nan", "one_inf", "zero"])
def test_bad_frames_raise_no_numpy_warning(kind):
    # the NaN, inf and zero frames of the cases above, with every warning an error
    cfg = EstimatorConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in range(20):
            for name in ("two_stage", "e_als", "ls"):
                sched = make_schedule(TINY, "two_stage" if name == "two_stage" else "e_als")
                est = estimate(name, tiny_frame(kind, sched, seed), sched, cfg, seed)
                if kind != "zero":
                    assert est.failed and est.failure_reason == "non-finite frame"
                    assert est.iterations == 0 and est.op_count == 0
        for name, field in [("two_stage", "tensor"), ("two_stage", "off_stage"), ("e_als", "tensor"), ("ls", "tensor")]:
            _, _, sched, recv = noisy_setup("two_stage" if name == "two_stage" else "e_als", seed=30)
            est = estimate(name, with_nan(recv, field), sched, cfg, 31)
            assert est.failed and est.failure_reason == "non-finite frame"


def test_stock_sweeps_compute_no_eigenvalues_and_no_khatri_rao():
    # every sweep Gram on the stock schedules is certified by its bound; the
    # only eigenvalues are the two sweep-invariant spectra (Psi^H Psi and the
    # direct block's Gram), and no Khatri-Rao regressor is formed
    calls = {"eigvalsh": 0, "khatri_rao": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    eigvalsh = counted("eigvalsh", np.linalg.eigvalsh)
    khatri_rao = counted("khatri_rao", ristensor.estimators.khatri_rao)
    with mock.patch.object(np.linalg, "eigvalsh", eigvalsh), mock.patch.object(
        ristensor.estimators, "khatri_rao", khatri_rao
    ):
        for snr_db in (-5.0, 0.0, 10.0, 20.0, 30.0):
            for name in ("two_stage", "e_als"):
                for seed in range(4):
                    _, _, sched, recv = noisy_setup(name, seed=40 + seed, snr_db=snr_db)
                    before = dict(calls)
                    est = estimate(name, recv, sched, EstimatorConfig(), seed)
                    assert not est.failed and est.iterations >= 2, (name, snr_db, seed)
                    assert calls["eigvalsh"] - before["eigvalsh"] == 2, (name, snr_db, seed)
                    assert calls["khatri_rao"] == before["khatri_rao"], (name, snr_db, seed)


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
    # H_ra and H_ua: every Gram and contracted right-hand side a sweep
    # passes equals a^H a and a^H rhs of the regressor its fallback forms,
    # with (e_als) and without (als_ris, K_d = 0) a direct block
    rng = np.random.default_rng(seed)
    l, b = k + extra_l, n + k + extra_b
    sched = TrainingSchedule(pilots=crandn(rng, (k, l)), ris_phases=crandn(rng, (b, n)))
    recv = ReceiveTensor(tensor=crandn(rng, (m, l, b)))
    seen = []

    def checked(gram, a_h_rhs, regression, tol=1e-12, bounds=None):
        a, rhs = regression()
        for got, want in ((a_h_rhs, a.conj().T @ rhs), (gram, a.conj().T @ a)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        seen.append(a.shape[1])
        return certified_gram_solve(gram, a_h_rhs, regression, tol, bounds)

    cfg = EstimatorConfig(max_iters=3, conv_threshold=1e-300)
    with mock.patch.object(ristensor.estimators, "certified_gram_solve", checked):
        if joint:
            est = e_als_estimate(recv, sched, cfg, rng)
        else:
            est = als_ris(recv.tensor, sched, cfg, rng)
    k_d = k if joint else 0
    assert seen[:2] == [k_d + n, n]
    assert len(seen) == 2 * est.iterations or est.failed


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


def test_aggregate_nmse_matches_between_decoupled_and_theta():
    # both parameterizations describe the same stacked vector
    cfg, ch, sched, recv = noiseless_setup("e_als", seed=27)
    theta_est = ls_baseline(recv, sched, EstimatorConfig())
    decoupled = ChannelEstimate(h_ua=ch.h_ua, h_ra=ch.h_ra, h_ur=ch.h_ur)
    assert aggregate_vector_nmse(decoupled, ch) == pytest.approx(0.0, abs=1e-12)
    assert aggregate_vector_nmse(theta_est, ch) == pytest.approx(0.0, abs=1e-12)
