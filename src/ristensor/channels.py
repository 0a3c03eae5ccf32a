"""Geometric channel synthesis for a RIS-assisted MIMO uplink.

Three links: user->AP (direct), RIS->AP, and user->RIS.  Every channel is a
sum of n_paths specular components with CN(0, 1) gains and uniformly drawn
angles; the AP is a half-wavelength ULA, the RIS a half-wavelength URA.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor_ops import crandn_stacks
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
        # a gain that over- or underflows leaves every frame or score non-finite
        with np.errstate(all="ignore"):
            gains = link_gains(self)
        for link, gain in gains.items():
            if not (math.isfinite(gain) and gain >= np.finfo(float).tiny):
                raise ValueError(f"link {link!r} has gain {gain:.3g}, not a finite normal float")


@dataclass
class ChannelSet:
    """Ground-truth channel triple: direct (M, K), RIS->AP (M, N), user->RIS (N, K).

    A stack of G realizations puts a leading G axis on every array.
    """

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


@functools.lru_cache(maxsize=None)
def _phase_ramp(count, spacing):
    # 2j*pi*spacing*p for element p < count, built once per array size
    ramp = 2j * np.pi * spacing * np.arange(count)
    ramp.flags.writeable = False
    return ramp


def steer_ula(m, theta, spacing=0.5):
    """ULA response, entry p = exp(2i*pi*spacing*p*sin(theta)); shape (m, *theta.shape)."""
    return np.exp(np.multiply.outer(_phase_ramp(m, spacing), np.sin(theta)))


def steer_ura(grid, theta, psi, spacing=0.5):
    """URA response for a (rows, cols) grid at elevation theta, azimuth psi.

    Column index varies fastest: the response is kron(a_rows, a_cols) with
    row phases along sin(theta)sin(psi) and column phases along
    sin(theta)cos(psi).  Equal-shape angle arrays give one column per angle.
    """
    rows, cols = grid
    sin_el = np.sin(theta)
    a_y = np.exp(np.multiply.outer(_phase_ramp(rows, spacing), sin_el) * np.sin(psi))
    a_x = np.exp(np.multiply.outer(_phase_ramp(cols, spacing), sin_el) * np.cos(psi))
    return (a_y[:, None] * a_x).reshape((rows * cols,) + np.shape(theta))


# uniform(0, high) is high * random(): the upper bound of each kind of angle
_ANGLE_HIGHS = np.array([[np.pi / 2.0], [np.pi / 2.0], [np.pi]])


def _draw_angles(cfg, dims, rng):
    # one random() call, the bits of one uniform call per kind of angle,
    # RIS->AP paths first, then user paths; returned as (3, R + K*R) rows of
    # AP angles, RIS-side elevations and azimuths, the R RIS->AP paths before
    # the K*R user paths
    _, k, _ = dims
    r = cfg.n_paths
    draws = rng.random(3 * r * (1 + k))
    angles = np.concatenate([draws[:3 * r].reshape(3, r), draws[3 * r:].reshape(3, k * r)], axis=1)
    angles *= _ANGLE_HIGHS
    return angles


def draw_channels(cfg, dims, rng, geometry_rng=None):
    """One channel realization for dims = (M, K, N); angles redrawn unless geometry_rng is given.

    rng draws the angles, then the gains, in one call each; geometry_rng,
    if given, draws the angles instead, so realizations drawn with equally
    seeded geometry generators share their angles.  The gains of the
    RIS->AP, user->AP and user->RIS paths follow in turn.
    """
    m, k, n = dims
    grid = (cfg.ris_rows, cfg.ris_cols)
    if cfg.ris_rows * cfg.ris_cols != n:
        raise ValueError(f"RIS grid {grid} does not match {n} elements")
    angles = _draw_angles(cfg, dims, rng if geometry_rng is None else geometry_rng)
    gains = link_gains(cfg)
    r = cfg.n_paths
    # crandn(rng, R), then crandn(rng, (K, R)) twice, from one call
    alpha_ra, alpha_ua, alpha_ur = (a[0] for a in crandn_stacks([rng], ((r,), (k, r), (k, r))))

    # one steering column per path, for all links at once: (M, R + K*R), (N, R + K*R)
    a_ap = steer_ula(m, angles[0], cfg.spacing)
    b_ris = steer_ura(grid, angles[1], angles[2], cfg.spacing)
    h_ra = math.sqrt(gains["ra"]) * ((a_ap[:, :r] * alpha_ra) @ b_ris[:, :r].conj().T)
    a_ua = np.ascontiguousarray(a_ap[:, r:]).reshape(m, k, r)
    b_ur = np.ascontiguousarray(b_ris[:, r:]).reshape(n, k, r)
    h_ua = math.sqrt(gains["ua"]) * np.einsum("mkr,kr->mk", a_ua, alpha_ua)
    h_ur = math.sqrt(gains["ur"]) * np.einsum("nkr,kr->nk", b_ur, alpha_ur)
    return ChannelSet(h_ua=h_ua, h_ra=h_ra, h_ur=h_ur)
