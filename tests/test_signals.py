import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ristensor.channels import ChannelModelConfig, ChannelSet, draw_channels
from ristensor.signals import (
    ReceiveTensor,
    SystemConfig,
    TrainingSchedule,
    make_phase_schedule,
    make_pilots,
    make_schedule,
    model_unfoldings,
    noiseless_tensor,
    synthesize,
)
from ristensor.tensor_ops import crandn, dft_matrix, unfold_mode1, unfold_mode2


def default_channels(seed=0):
    return draw_channels(ChannelModelConfig(), (4, 8, 25), np.random.default_rng(seed))


def test_make_pilots_small_case():
    np.testing.assert_allclose(make_pilots(2, 2, 1.0), [[1, 1], [1, -1]], atol=1e-15)


def test_make_pilots_orthogonal_rows():
    x = make_pilots(8, 8, 1.0)
    np.testing.assert_allclose(x @ x.conj().T, 8 * np.eye(8), atol=1e-10)
    scaled = make_pilots(8, 8, 4.0)
    np.testing.assert_allclose(np.abs(scaled), 2.0, atol=1e-12)
    np.testing.assert_allclose(scaled @ scaled.conj().T, 32 * np.eye(8), atol=1e-9)


def test_make_pilots_too_few_symbols():
    with pytest.raises(ValueError, match="pilot symbols"):
        make_pilots(3, 2, 1.0)


def test_phase_schedule_two_stage():
    np.testing.assert_allclose(make_phase_schedule(2, "two_stage"), [[1, 1], [1, -1]], atol=1e-15)


def test_phase_schedule_joint_reconstitutes_full_dft():
    psi = make_phase_schedule(25, "e_als")
    assert psi.shape == (26, 25)
    rebuilt = np.hstack([np.ones((26, 1)), psi])
    np.testing.assert_allclose(rebuilt, dft_matrix(26), atol=1e-12)
    np.testing.assert_allclose(np.abs(psi), 1.0, atol=1e-12)


def test_phase_schedule_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        make_phase_schedule(4, "other")


def test_power_and_block_counts():
    cfg = SystemConfig(snr_db=20.0)
    assert cfg.power == pytest.approx(100.0)
    assert cfg.blocks("two_stage") == 25
    assert cfg.blocks("e_als") == 26
    noiseless = SystemConfig(snr_db=20.0, noise_var=0.0)
    assert noiseless.power == pytest.approx(100.0)


def test_training_length_parity():
    cfg = SystemConfig()
    assert cfg.training_len("two_stage") == 208
    assert cfg.training_len("e_als") == 208


def test_system_config_validation():
    with pytest.raises(ValueError, match="n_ris"):
        SystemConfig(n_ris=0)
    with pytest.raises(ValueError, match="pilot_len"):
        SystemConfig(k_users=4, pilot_len=2)
    with pytest.raises(ValueError, match="M\\*L\\*B"):
        SystemConfig(m_ap=1, k_users=1, pilot_len=1, n_ris=2).validate_for("two_stage")


def test_synthesize_scalar_degenerate_case():
    cfg = SystemConfig(m_ap=1, k_users=1, n_ris=1, pilot_len=1, off_stage_len=1,
                       snr_db=0.0, noise_var=0.0)
    ch = ChannelSet(
        h_ua=np.array([[2.0 + 0j]]),
        h_ra=np.array([[1.0 - 1.0j]]),
        h_ur=np.array([[0.5j]]),
    )
    sched = TrainingSchedule(pilots=np.array([[3.0 + 0j]]), ris_phases=np.ones((1, 1)))
    recv = synthesize(ch, sched, cfg, np.random.default_rng(0))
    expected = (2.0 + (1.0 - 1.0j) * 0.5j) * 3.0
    assert recv.tensor[0, 0, 0] == pytest.approx(expected)


@pytest.mark.parametrize("mode", ["two_stage", "e_als"])
def test_noiseless_unfoldings_match_factor_model(mode):
    cfg = SystemConfig(snr_db=10.0, noise_var=0.0)
    ch = default_channels()
    sched = make_schedule(cfg, mode)
    recv = synthesize(ch, sched, cfg, np.random.default_rng(1))
    y1, y2 = model_unfoldings(ch, sched)
    assert np.linalg.norm(unfold_mode1(recv.tensor) - y1) <= 1e-12 * np.linalg.norm(y1)
    assert np.linalg.norm(unfold_mode2(recv.tensor) - y2) <= 1e-12 * np.linalg.norm(y2)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 3),
    k=st.integers(1, 3),
    extra_l=st.integers(0, 2),
    n=st.integers(1, 4),
    b=st.integers(1, 5),
    l_off=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_synthesize_matches_factor_model_and_noise_layout(m, k, extra_l, n, b, l_off, seed):
    # random complex pilots and non-unit-modulus phases, with and without an OFF stage
    rng = np.random.default_rng(seed)
    l = k + extra_l
    ch = ChannelSet(h_ua=crandn(rng, (m, k)), h_ra=crandn(rng, (m, n)), h_ur=crandn(rng, (n, k)))
    sched = TrainingSchedule(
        pilots=crandn(rng, (k, l)),
        ris_phases=crandn(rng, (b, n)),
        off_pilots=crandn(rng, (k, l_off)) if l_off else None,
    )
    cfg = SystemConfig(m_ap=m, k_users=k, n_ris=n, pilot_len=l, off_stage_len=max(l_off, 1),
                       noise_var=0.7)
    quiet = noiseless_tensor(ch, sched, cfg)
    y1, y2 = model_unfoldings(ch, sched)
    assert np.linalg.norm(unfold_mode1(quiet.tensor) - y1) <= 1e-12 * np.linalg.norm(y1)
    assert np.linalg.norm(unfold_mode2(quiet.tensor) - y2) <= 1e-12 * np.linalg.norm(y2)

    noisy = synthesize(ch, sched, cfg, np.random.default_rng(seed))
    noise = np.sqrt(0.7) * crandn(np.random.default_rng(seed), (m, l_off + b * l))
    expected = np.empty((m, l, b), dtype=complex)
    for blk in range(b):
        for i in range(l):
            expected[:, i, blk] = noise[:, l_off + blk * l + i]
    atol = 1e-12 * np.max(np.abs(noisy.tensor))
    np.testing.assert_allclose(noisy.tensor - quiet.tensor, expected, rtol=0, atol=atol)
    if l_off:
        np.testing.assert_allclose(noisy.off_stage - quiet.off_stage, noise[:, :l_off],
                                   rtol=0, atol=atol)
    else:
        assert noisy.off_stage is None and quiet.off_stage is None


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 6),
    k=st.integers(1, 4),
    extra_l=st.integers(0, 3),
    n=st.integers(1, 30),
    mode=st.sampled_from(["two_stage", "e_als"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_noiseless_frame_matches_the_triple_sum(m, k, extra_l, n, mode, seed):
    # the frame's RIS term is one Khatri-Rao product; the reference is the
    # triple sum over (n, m, l) as one einsum, and the factor model's unfoldings
    rng = np.random.default_rng(seed)
    l = k + extra_l
    ch = ChannelSet(h_ua=crandn(rng, (m, k)), h_ra=crandn(rng, (m, n)), h_ur=crandn(rng, (n, k)))
    cfg = SystemConfig(m_ap=m, k_users=k, n_ris=n, pilot_len=l, off_stage_len=l)
    sched = TrainingSchedule(
        pilots=make_pilots(k, l, cfg.power),
        ris_phases=make_phase_schedule(n, mode),
        off_pilots=make_pilots(k, l, cfg.power) if mode == "two_stage" else None,
    )
    x = sched.pilots
    frame = noiseless_tensor(ch, sched, cfg).tensor
    want = (ch.h_ua @ x)[:, :, None] + np.einsum(
        "mn,bn,nl->mlb", ch.h_ra, sched.ris_phases, ch.h_ur @ x
    )
    assert frame.shape == want.shape == (m, l, sched.blocks)
    assert np.linalg.norm(frame - want) <= 1e-13 * np.linalg.norm(want)
    y1, y2 = model_unfoldings(ch, sched)
    assert np.linalg.norm(unfold_mode1(frame) - y1) <= 1e-13 * np.linalg.norm(y1)
    assert np.linalg.norm(unfold_mode2(frame) - y2) <= 1e-13 * np.linalg.norm(y2)


def test_off_stage_present_only_for_two_stage():
    cfg = SystemConfig(snr_db=10.0)
    ch = default_channels()
    assert synthesize(ch, make_schedule(cfg, "two_stage"), cfg, np.random.default_rng(2)).off_stage.shape == (4, 8)
    assert synthesize(ch, make_schedule(cfg, "e_als"), cfg, np.random.default_rng(2)).off_stage is None


def test_noise_second_moment():
    # zeroed channels leave pure noise in the frame
    cfg = SystemConfig(m_ap=100, k_users=1, n_ris=99, pilot_len=100, snr_db=0.0, noise_var=2.0)
    ch = ChannelSet(
        h_ua=np.zeros((100, 1), dtype=complex),
        h_ra=np.zeros((100, 99), dtype=complex),
        h_ur=np.zeros((99, 1), dtype=complex),
    )
    recv = synthesize(ch, make_schedule(cfg, "e_als"), cfg, np.random.default_rng(3))
    assert recv.tensor.size == 1_000_000
    assert np.mean(np.abs(recv.tensor) ** 2) == pytest.approx(2.0, rel=0.01)


def test_identically_seeded_schedules_share_noise():
    # the OFF stage eats the same leading noise columns the joint frame puts in block 0
    cfg = SystemConfig(snr_db=10.0)
    ch = default_channels(3)
    seq = np.random.SeedSequence(77)
    sched_ts = make_schedule(cfg, "two_stage")
    sched_ea = make_schedule(cfg, "e_als")
    recv_ts = synthesize(ch, sched_ts, cfg, np.random.default_rng(seq))
    recv_ea = synthesize(ch, sched_ea, cfg, np.random.default_rng(seq))
    off_noise = recv_ts.off_stage - ch.h_ua @ sched_ts.off_pilots
    blk0 = recv_ea.tensor[:, :, 0] - (
        ch.h_ua + ch.h_ra @ np.diag(sched_ea.ris_phases[0]) @ ch.h_ur
    ) @ sched_ea.pilots
    np.testing.assert_allclose(off_noise, blk0, atol=1e-12)


def test_synthesize_determinism_and_shape_checks():
    cfg = SystemConfig(snr_db=5.0)
    ch = default_channels(4)
    sched = make_schedule(cfg, "e_als")
    a = synthesize(ch, sched, cfg, np.random.default_rng(9))
    b = synthesize(ch, sched, cfg, np.random.default_rng(9))
    np.testing.assert_array_equal(a.tensor, b.tensor)
    small = SystemConfig(m_ap=2, k_users=2, n_ris=4, pilot_len=2, off_stage_len=2)
    with pytest.raises(ValueError, match="shape"):
        synthesize(ch, sched, small, np.random.default_rng(0))


def test_synthesize_noise_must_match_one_realization_or_a_stack():
    cfg = SystemConfig(snr_db=5.0)
    ch = default_channels(4)
    stacked = ChannelSet(*(a[None] for a in (ch.h_ua, ch.h_ra, ch.h_ur)))
    sched = make_schedule(cfg, "two_stage")
    t = cfg.training_len("two_stage")
    with pytest.raises(ValueError, match="noise must be a generator for one realization"):
        synthesize(stacked, sched, cfg, np.random.default_rng(0))
    with pytest.raises(ValueError, match="noise must be a generator for one realization"):
        synthesize(ch, sched, cfg, np.zeros((1, cfg.m_ap, t), complex))
    short = r"noise shape \(1, 4, 200\) is not \(G, M, T\) = \(1, 4, 208\)"
    with pytest.raises(ValueError, match=short):
        synthesize(stacked, sched, cfg, np.zeros((1, cfg.m_ap, t - 8), complex))
    # a stack of one with its generator's draw is the lone realization's frame
    alone = synthesize(ch, sched, cfg, np.random.default_rng(3))
    noise = np.sqrt(cfg.noise_var) * crandn(np.random.default_rng(3), (cfg.m_ap, t))
    row = synthesize(stacked, sched, cfg, noise[None])
    assert row.tensor[0].tobytes() == alone.tensor.tobytes()
    assert row.off_stage[0].tobytes() == alone.off_stage.tobytes()


def test_receive_tensor_slice_construction():
    cfg = SystemConfig(snr_db=0.0, noise_var=0.0)
    ch = default_channels(5)
    sched = make_schedule(cfg, "e_als")
    recv = synthesize(ch, sched, cfg, np.random.default_rng(0))
    for blk in (0, 13, 25):
        expected = (ch.h_ua + ch.h_ra @ np.diag(sched.ris_phases[blk]) @ ch.h_ur) @ sched.pilots
        np.testing.assert_allclose(recv.tensor[:, :, blk], expected, atol=1e-12)
    assert isinstance(recv, ReceiveTensor)
