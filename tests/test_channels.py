import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ristensor.channels import (
    ChannelModelConfig,
    channels_from_geometry,
    draw_channels,
    draw_geometry,
    link_gains,
    pathloss,
    steer_ula,
    steer_ura,
)

DIMS = (4, 8, 25)


def db(x):
    return 10 * np.log10(x)


def test_pathloss_reference_values():
    cfg = ChannelModelConfig()
    assert db(pathloss(cfg, "ua")) == pytest.approx(-52.497, abs=5e-3)
    assert db(pathloss(cfg, "ra")) == pytest.approx(-47.322, abs=5e-3)
    assert db(pathloss(cfg, "ur")) == pytest.approx(-74.643, abs=5e-3)
    at_ref = dataclasses.replace(cfg, dist_ua_m=cfg.ref_distance_m)
    assert pathloss(at_ref, "ua") == pytest.approx(0.01)


def test_pathloss_unknown_link():
    with pytest.raises(ValueError, match="unknown link"):
        pathloss(ChannelModelConfig(), "xx")


def test_link_gains_normalization():
    cfg = ChannelModelConfig()
    raw = {link: pathloss(cfg, link) for link in ("ua", "ra", "ur")}
    gains = link_gains(cfg)
    assert gains["ua"] == pytest.approx(1.0)
    assert gains["ra"] == pytest.approx(raw["ra"] / raw["ua"])
    assert gains["ur"] == pytest.approx(raw["ur"] / raw["ua"])
    absolute = link_gains(dataclasses.replace(cfg, normalize_to_direct=False))
    assert absolute == raw


def test_steer_ula_phases():
    theta = np.pi / 6
    a = steer_ula(3, theta)
    np.testing.assert_allclose(a, np.exp(2j * np.pi * 0.5 * np.arange(3) * np.sin(theta)))
    np.testing.assert_allclose(np.abs(a), 1.0)


def test_steer_ura_kron_layout():
    theta, psi = 0.7, 1.9
    a = steer_ura((2, 3), theta, psi)
    assert a.shape == (6,)
    for q in range(2):
        for p in range(3):
            expected = np.exp(
                2j * np.pi * 0.5 * np.sin(theta) * (q * np.sin(psi) + p * np.cos(psi))
            )
            assert a[q * 3 + p] == pytest.approx(expected)
    np.testing.assert_allclose(np.abs(a), 1.0)


@settings(max_examples=50, deadline=None)
@given(
    shape=st.lists(st.integers(1, 3), min_size=1, max_size=2).map(tuple),
    m=st.integers(1, 5),
    grid=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    spacing=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_steering_on_angle_arrays_stacks_scalar_calls(shape, m, grid, spacing, seed):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, np.pi / 2, shape)
    psi = rng.uniform(0.0, np.pi, shape)
    ula = steer_ula(m, theta, spacing)
    ura = steer_ura(grid, theta, psi, spacing)
    assert ula.shape == (m,) + shape
    assert ura.shape == (grid[0] * grid[1],) + shape
    for idx in np.ndindex(shape):
        np.testing.assert_allclose(ula[(slice(None),) + idx], steer_ula(m, theta[idx], spacing),
                                   rtol=1e-14, atol=0)
        np.testing.assert_allclose(ura[(slice(None),) + idx],
                                   steer_ura(grid, theta[idx], psi[idx], spacing),
                                   rtol=1e-14, atol=0)


def test_ris_to_ap_channel_rank_bounded_by_paths():
    cfg = ChannelModelConfig()
    for seed in range(5):
        ch = draw_channels(cfg, DIMS, np.random.default_rng(seed))
        s = np.linalg.svd(ch.h_ra, compute_uv=False)
        assert np.all(s[cfg.n_paths :] <= 1e-10 * s[0])


def test_channel_shapes_and_grid_mismatch():
    cfg = ChannelModelConfig()
    ch = draw_channels(cfg, DIMS, np.random.default_rng(0))
    assert ch.h_ua.shape == (4, 8)
    assert ch.h_ra.shape == (4, 25)
    assert ch.h_ur.shape == (25, 8)
    with pytest.raises(ValueError, match="grid"):
        draw_channels(cfg, (4, 8, 24), np.random.default_rng(0))


def test_direct_channel_second_moment():
    # every column has expected squared norm gain * n_paths * M
    cfg = ChannelModelConfig()
    rng = np.random.default_rng(7)
    total, count = 0.0, 0
    for _ in range(1250):
        ch = draw_channels(cfg, DIMS, rng)
        total += np.sum(np.abs(ch.h_ua) ** 2)
        count += ch.h_ua.shape[1]
    expected = link_gains(cfg)["ua"] * cfg.n_paths * DIMS[0]
    assert total / count == pytest.approx(expected, rel=0.05)


def test_normalization_is_a_pure_rescaling():
    cfg_on = ChannelModelConfig()
    cfg_off = dataclasses.replace(cfg_on, normalize_to_direct=False)
    ch_on = draw_channels(cfg_on, DIMS, np.random.default_rng(11))
    ch_off = draw_channels(cfg_off, DIMS, np.random.default_rng(11))
    scale = np.sqrt(pathloss(cfg_on, "ua"))
    np.testing.assert_allclose(ch_on.h_ua * scale, ch_off.h_ua, rtol=1e-12)
    np.testing.assert_allclose(ch_on.h_ra * scale, ch_off.h_ra, rtol=1e-12)
    np.testing.assert_allclose(ch_on.h_ur * scale, ch_off.h_ur, rtol=1e-12)


def test_seed_determinism():
    cfg = ChannelModelConfig()
    a = draw_channels(cfg, DIMS, np.random.default_rng(42))
    b = draw_channels(cfg, DIMS, np.random.default_rng(42))
    np.testing.assert_array_equal(a.h_ua, b.h_ua)
    np.testing.assert_array_equal(a.h_ra, b.h_ra)
    np.testing.assert_array_equal(a.h_ur, b.h_ur)


def test_fixed_geometry_reuses_angles():
    cfg = dataclasses.replace(ChannelModelConfig(), n_paths=1)
    geo_seed = 5
    ch1 = draw_channels(cfg, DIMS, np.random.default_rng(1), np.random.default_rng(geo_seed))
    ch2 = draw_channels(cfg, DIMS, np.random.default_rng(2), np.random.default_rng(geo_seed))
    # single path: shared geometry means the matrices differ by one scalar gain
    ratio = ch1.h_ra / ch2.h_ra
    np.testing.assert_allclose(ratio, ratio[0, 0], rtol=1e-10)
    # different geometry is visible in the phase pattern, never in the
    # modulus (single-path entries all share one modulus)
    redrawn = draw_channels(cfg, DIMS, np.random.default_rng(2))
    other = ch1.h_ra / redrawn.h_ra
    assert np.abs(other / other[0, 0] - 1).max() > 1e-3


def test_geometry_angle_ranges():
    cfg = ChannelModelConfig()
    geom = draw_geometry(cfg, DIMS, np.random.default_rng(3))
    for arr in (geom.ra_ap, geom.ra_el, geom.ua_ap, geom.ur_el):
        assert np.all((0 <= arr) & (arr < np.pi / 2))
    for arr in (geom.ra_az, geom.ur_az):
        assert np.all((0 <= arr) & (arr < np.pi))
    ch = channels_from_geometry(cfg, DIMS, geom, np.random.default_rng(4))
    assert ch.cascade.shape == (4, 8)


def test_config_validation():
    with pytest.raises(ValueError, match="n_paths"):
        ChannelModelConfig(n_paths=0)
    with pytest.raises(ValueError, match="dist_ua_m"):
        ChannelModelConfig(dist_ua_m=0.0)
