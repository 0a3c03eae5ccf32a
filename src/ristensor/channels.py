"""Geometric channel synthesis for a RIS-assisted MIMO uplink.

Three links: user->AP (direct), RIS->AP, and user->RIS.  Every channel is a
sum of n_paths specular components with CN(0, 1) gains and uniformly drawn
angles; the AP is a half-wavelength ULA, the RIS a half-wavelength URA.
"""

from dataclasses import dataclass

import numpy as np

from .tensor_ops import crandn
from .validation import check_field_types

LINKS = ("ua", "ra", "ur")


@dataclass
class ChannelModelConfig:
    n_paths: int = 2
    spacing: float = 0.5           # element spacing over wavelength
    ref_loss_db: float = -20.0     # pathloss at the reference distance
    ref_distance_m: float = 1.0
    dist_ua_m: float = 30.0
    exp_ua: float = 2.2
    dist_ra_m: float = 20.0
    exp_ra: float = 2.1
    dist_ur_m: float = 20.0
    exp_ur: float = 4.2
    ris_rows: int = 5
    ris_cols: int = 5
    # Scale the three large-scale gains by 1/pathloss(ua) so the direct link
    # sits at 0 dB.  Leaves every gain ratio (and SNR = P/sigma^2) intact while
    # keeping the received signal in the same decade as unit-variance noise.
    normalize_to_direct: bool = True

    def __post_init__(self):
        check_field_types(self)
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.ris_rows < 1 or self.ris_cols < 1:
            raise ValueError("RIS grid dimensions must be >= 1")
        for name in ("ref_distance_m", "dist_ua_m", "dist_ra_m", "dist_ur_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass
class Geometry:
    """Path angles (radians) for one realization; arrays indexed [user, path] where per-user."""

    ra_ap: np.ndarray      # (R,)   AP-side angle of each RIS->AP path
    ra_el: np.ndarray      # (R,)   RIS-side elevation
    ra_az: np.ndarray      # (R,)   RIS-side azimuth
    ua_ap: np.ndarray      # (K, R) AP-side angle of each user->AP path
    ur_el: np.ndarray      # (K, R)
    ur_az: np.ndarray      # (K, R)


@dataclass
class ChannelSet:
    """Ground-truth channel triple: direct (M, K), RIS->AP (M, N), user->RIS (N, K)."""

    h_ua: np.ndarray
    h_ra: np.ndarray
    h_ur: np.ndarray

    @property
    def cascade(self):
        return self.h_ra @ self.h_ur


def pathloss(cfg, link):
    """Absolute large-scale gain (linear) of a link in LINKS, from the distance power law."""
    if link not in LINKS:
        raise ValueError(f"unknown link {link!r}, expected one of {LINKS}")
    dist = getattr(cfg, f"dist_{link}_m")
    exponent = getattr(cfg, f"exp_{link}")
    loss_db = cfg.ref_loss_db - 10.0 * exponent * np.log10(dist / cfg.ref_distance_m)
    return 10.0 ** (loss_db / 10.0)


def link_gains(cfg):
    """Effective large-scale gains used in synthesis, honoring normalize_to_direct."""
    gains = {link: pathloss(cfg, link) for link in LINKS}
    if cfg.normalize_to_direct:
        ref = gains["ua"]
        gains = {link: g / ref for link, g in gains.items()}
    return gains


def steer_ula(m, theta, spacing=0.5):
    """ULA response, entry p = exp(2i*pi*spacing*p*sin(theta)); shape (m, *theta.shape)."""
    return np.exp(np.multiply.outer(2j * np.pi * spacing * np.arange(m), np.sin(theta)))


def steer_ura(grid, theta, psi, spacing=0.5):
    """URA response for a (rows, cols) grid at elevation theta, azimuth psi.

    Column index varies fastest: the response is kron(a_rows, a_cols) with
    row phases along sin(theta)sin(psi) and column phases along
    sin(theta)cos(psi).  Equal-shape angle arrays give one column per angle.
    """
    rows, cols = grid
    sin_el = np.sin(theta)
    a_y = np.exp(np.multiply.outer(2j * np.pi * spacing * np.arange(rows), sin_el) * np.sin(psi))
    a_x = np.exp(np.multiply.outer(2j * np.pi * spacing * np.arange(cols), sin_el) * np.cos(psi))
    return (a_y[:, None] * a_x).reshape((rows * cols,) + np.shape(theta))


def draw_geometry(cfg, dims, rng):
    """Draw all path angles: AP angles and elevations on [0, pi/2), azimuths on [0, pi)."""
    _, k, _ = dims
    r = cfg.n_paths
    half = np.pi / 2.0
    return Geometry(
        ra_ap=rng.uniform(0.0, half, r),
        ra_el=rng.uniform(0.0, half, r),
        ra_az=rng.uniform(0.0, np.pi, r),
        ua_ap=rng.uniform(0.0, half, (k, r)),
        ur_el=rng.uniform(0.0, half, (k, r)),
        ur_az=rng.uniform(0.0, np.pi, (k, r)),
    )


def channels_from_geometry(cfg, dims, geom, rng):
    """Draw CN(0, 1) path gains for a fixed geometry and assemble the channel triple."""
    m, k, n = dims
    grid = (cfg.ris_rows, cfg.ris_cols)
    if cfg.ris_rows * cfg.ris_cols != n:
        raise ValueError(f"RIS grid {grid} does not match {n} elements")
    gains = link_gains(cfg)
    r = cfg.n_paths

    alpha_ra = crandn(rng, r)
    alpha_ua = crandn(rng, (k, r))
    alpha_ur = crandn(rng, (k, r))

    # steering arrays hold one column per path: (M, R), (N, R), (M, K, R), (N, K, R)
    a_ra = steer_ula(m, geom.ra_ap, cfg.spacing)
    b_ra = steer_ura(grid, geom.ra_el, geom.ra_az, cfg.spacing)
    a_ua = steer_ula(m, geom.ua_ap, cfg.spacing)
    b_ur = steer_ura(grid, geom.ur_el, geom.ur_az, cfg.spacing)
    h_ra = np.sqrt(gains["ra"]) * ((a_ra * alpha_ra) @ b_ra.conj().T)
    h_ua = np.sqrt(gains["ua"]) * np.einsum("mkr,kr->mk", a_ua, alpha_ua)
    h_ur = np.sqrt(gains["ur"]) * np.einsum("nkr,kr->nk", b_ur, alpha_ur)

    return ChannelSet(h_ua=h_ua, h_ra=h_ra, h_ur=h_ur)


def draw_channels(cfg, dims, rng, geometry_rng=None):
    """One channel realization for dims = (M, K, N); angles redrawn unless geometry_rng is given."""
    geom = draw_geometry(cfg, dims, geometry_rng if geometry_rng is not None else rng)
    return channels_from_geometry(cfg, dims, geom, rng)
