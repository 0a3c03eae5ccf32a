"""Training schedules and received-signal synthesis.

A training frame is B blocks of L pilot symbols; the RIS holds one phase
pattern per block.  The two-stage scheme prepends a RIS-OFF stage of length
off_stage_len, the joint scheme keeps the RIS on for all B = N + 1 blocks.
The noiseless (M, L, B) frame is [[H_ua, X^T, 1_B]] + [[H_ra, Z^T, Psi]] with
Z = H_ur X: block b is (H_ua + H_ra * diag(psi_b) * H_ur) @ X.  The RIS
term's mode-3 unfolding is Psi times the N Khatri-Rao rows h_ra[:, n] z_n^T,
so synthesize forms it as one matrix product.  Psi (two_stage) and
[1 | Psi] (e_als) are the square DFT(N) and DFT(N + 1), F^H F = B I, which
lets the ALS sweep measure its residual without forming this model frame.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .tensor_ops import crandn_stacks, dft_matrix, khatri_rao
from .validation import check_field_types

MODES = ("two_stage", "e_als")


@dataclass
class SystemConfig:
    m_ap: int = 4              # AP antennas
    k_users: int = 8
    n_ris: int = 25
    pilot_len: int = 8         # L, pilots per block
    off_stage_len: int = 8     # L', RIS-OFF stage (two_stage only)
    snr_db: float = 30.0
    noise_var: float = 1.0     # sigma^2; SNR is swept through the pilot power

    def __post_init__(self):
        check_field_types(self)
        for name in ("m_ap", "k_users", "n_ris", "pilot_len", "off_stage_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.pilot_len < self.k_users:
            raise ValueError("pilot_len must be >= k_users for full-row-rank pilots")
        if self.noise_var < 0:
            raise ValueError("noise_var must be >= 0")

    @property
    def power(self):
        """Per-user transmit power realizing snr_db against noise_var."""
        # noise_var = 0 keeps the unit-noise power scale so noiseless runs
        # still have a usable pilot amplitude
        base = self.noise_var if self.noise_var > 0 else 1.0
        return base * 10.0 ** (self.snr_db / 10.0)

    def blocks(self, mode):
        _check_mode(mode)
        return self.n_ris if mode == "two_stage" else self.n_ris + 1

    def training_len(self, mode):
        """Total training symbols T; identical across modes when off_stage_len == pilot_len."""
        _check_mode(mode)
        extra = self.off_stage_len if mode == "two_stage" else 0
        return extra + self.blocks(mode) * self.pilot_len

    def validate_for(self, mode):
        # e_als's B*L >= N+K always holds: (N+1)*L >= N+K as pilot_len >= k_users
        m, n, l, b = self.m_ap, self.n_ris, self.pilot_len, self.blocks(mode)
        if mode == "two_stage" and m * l * b < n * (m + l):
            raise ValueError("two_stage needs M*L*B >= N*(M+L) for full-rank factors")


@dataclass
class TrainingSchedule:
    pilots: np.ndarray               # X, (K, L)
    ris_phases: np.ndarray           # Psi, (B, N), unit modulus
    off_pilots: np.ndarray = None    # X bar, (K, L'), two_stage only

    @property
    def blocks(self):
        return self.ris_phases.shape[0]


def _check_mode(mode):
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


def make_pilots(k, l, power):
    """First k rows of an l x l DFT matrix scaled by sqrt(power); X X^H = l*power*I_k."""
    if l < k:
        raise ValueError(f"need at least as many pilot symbols as users, got l={l} < k={k}")
    return np.sqrt(power) * dft_matrix(l)[:k, :]


def make_phase_schedule(n, mode):
    """RIS phase rows: DFT(n) for two_stage, DFT(n+1) minus its ones column for e_als."""
    _check_mode(mode)
    if mode == "two_stage":
        return dft_matrix(n)
    return dft_matrix(n + 1)[:, 1:]


def make_schedule(cfg, mode):
    """Full training schedule for a mode; off-stage pilots reuse the DFT construction."""
    cfg.validate_for(mode)
    pilots = make_pilots(cfg.k_users, cfg.pilot_len, cfg.power)
    phases = make_phase_schedule(cfg.n_ris, mode)
    off = None
    if mode == "two_stage":
        off = make_pilots(cfg.k_users, cfg.off_stage_len, cfg.power)
    return TrainingSchedule(pilots=pilots, ris_phases=phases, off_pilots=off)


@dataclass
class ReceiveTensor:
    # a stack of G frames puts a leading G axis on both arrays
    tensor: np.ndarray              # (M, L, B)
    off_stage: np.ndarray = None    # V, (M, L'), present iff the schedule has an OFF stage


def draw_noise(rngs, cfg, t):
    """CN(0, noise_var) noise for a training length t, (len(rngs), M, t).

    Row g is np.sqrt(noise_var) * crandn(rngs[g], (M, t)), bit for bit.
    """
    return np.sqrt(cfg.noise_var) * crandn_stacks(rngs, ((cfg.m_ap, t),))[0]


def synthesize(channels, sched, cfg, noise):
    """Noisy received frames, each a C-ordered (M, L, B) array.

    For one realization, noise is the generator that draws its noise.  For
    G realizations stacked along a leading axis of each channel array, noise
    is draw_noise's (G, M, T) array, and the frames stack to (G, M, L, B)
    and the OFF stages to (G, M, L').  Either way a trial's noise is one
    (M, T) draw consumed in time order (OFF stage first, then block by
    block), so schedules of equal T can share it, which makes the
    comparison between their estimators paired; one realization is the
    stack of one's row.  The RIS term is R^T Psi^T as (M*L, B) per
    realization, with row n of R the outer product h_ra[:, n] z_n^T
    flattened row by row (Z = H_ur X): one product, whose entries equal the
    triple sum over (n, m, l) to rounding, and whose bits do not depend on
    the rest of the stack.
    """
    m, l, n = cfg.m_ap, cfg.pilot_len, cfg.n_ris
    b = sched.blocks
    x = sched.pilots
    one = isinstance(noise, np.random.Generator)
    if channels.h_ua.shape[-2:] != (m, cfg.k_users):
        raise ValueError(f"direct channel shape {channels.h_ua.shape} does not match config")
    if sched.ris_phases.shape[1] != cfg.n_ris or x.shape != (cfg.k_users, l):
        raise ValueError("schedule shapes do not match config")
    l_off = 0 if sched.off_pilots is None else sched.off_pilots.shape[1]
    t = l_off + b * l
    if one != (channels.h_ua.ndim == 2):
        raise ValueError(
            "noise must be a generator for one realization and a (G, M, T) array for a stack, "
            f"got {type(noise).__name__} for channels of shape {channels.h_ua.shape}"
        )
    h_ua, h_ra, h_ur = (
        a[None] if one else a for a in (channels.h_ua, channels.h_ra, channels.h_ur)
    )
    g = len(h_ua)
    if one:
        noise = draw_noise([noise], cfg, t)
    elif np.shape(noise) != (g, m, t):
        raise ValueError(f"noise shape {np.shape(noise)} is not (G, M, T) = {(g, m, t)}")

    off = None if sched.off_pilots is None else h_ua @ sched.off_pilots + noise[:, :, :l_off]
    # RIS term + direct term + noise column l_off + b*L + i at [:, :, i, b]
    ris_rows = (h_ra.swapaxes(1, 2)[:, :, :, None] * (h_ur @ x)[:, :, None, :]).reshape(g, n, m * l)
    tensor = (ris_rows.swapaxes(1, 2) @ sched.ris_phases.T).reshape(g, m, l, b)
    tensor += (h_ua @ x)[..., None]
    tensor += noise[:, :, l_off:].reshape(g, m, b, l).swapaxes(2, 3)
    if one:
        return ReceiveTensor(tensor=tensor[0], off_stage=None if off is None else off[0])
    return ReceiveTensor(tensor=tensor, off_stage=off)


def model_unfoldings(channels, sched):
    """Noiseless mode-1 and mode-2 unfoldings straight from the factor matrices."""
    b = sched.blocks
    k = channels.h_ua.shape[1]
    z = channels.h_ur @ sched.pilots
    ones = np.ones((b, k))
    y1 = channels.h_ua @ khatri_rao(ones, sched.pilots.T).T \
        + channels.h_ra @ khatri_rao(sched.ris_phases, z.T).T
    y2 = sched.pilots.T @ khatri_rao(ones, channels.h_ua).T \
        + z.T @ khatri_rao(sched.ris_phases, channels.h_ra).T
    return y1, y2


def noiseless_tensor(channels, sched, cfg):
    """Synthesize with the noise generator disabled; convenience for model checks."""
    quiet = dataclasses.replace(cfg, noise_var=0.0)
    return synthesize(channels, sched, quiet, np.random.default_rng(0))
