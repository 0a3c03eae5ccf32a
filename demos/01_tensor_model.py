"""Two-term structure of the received training tensor.

Block b of the noiseless frame is (H_UA + H_RA diag(psi_b) H_UR) X, and its
unfoldings collapse into two Khatri-Rao factor products — one for the
direct path, one for the reflected path. This script checks both identities on
a random scene and prints the relative errors.
"""

import numpy as np

from ristensor import (
    ChannelSet,
    SystemConfig,
    crandn,
    khatri_rao,
    make_schedule,
    noiseless_tensor,
    unfold_mode1,
    unfold_mode2,
)

cfg = SystemConfig()  # M=4 antennas, K=8 users, N=25 RIS elements, L=8 pilots
sched = make_schedule(cfg, "e_als")
x, psi = sched.pilots, sched.ris_phases
b = psi.shape[0]

rng = np.random.default_rng(7)
ch = ChannelSet(
    h_ua=crandn(rng, (cfg.m_ap, cfg.k_users)),
    h_ra=crandn(rng, (cfg.m_ap, cfg.n_ris)),
    h_ur=crandn(rng, (cfg.n_ris, cfg.k_users)),
)

recv = noiseless_tensor(ch, sched, cfg)
print(f"received tensor: {recv.tensor.shape}  (antennas x pilots x blocks)")

# factor-matrix forms of the two unfoldings
z = ch.h_ur @ x
y1 = ch.h_ua @ khatri_rao(np.ones((b, cfg.k_users)), x.T).T + ch.h_ra @ khatri_rao(psi, z.T).T
y2 = x.T @ khatri_rao(np.ones((b, cfg.k_users)), ch.h_ua).T + z.T @ khatri_rao(psi, ch.h_ra).T

err1 = np.linalg.norm(unfold_mode1(recv.tensor) - y1) / np.linalg.norm(y1)
err2 = np.linalg.norm(unfold_mode2(recv.tensor) - y2) / np.linalg.norm(y2)
print(f"mode-1 unfolding vs factor formula: rel err {err1:.2e}")
print(f"mode-2 unfolding vs factor formula: rel err {err2:.2e}")

# the direct-path term alone: switch the RIS off by zeroing its gain
quiet = ChannelSet(h_ua=ch.h_ua, h_ra=np.zeros_like(ch.h_ra), h_ur=ch.h_ur)
direct_only = noiseless_tensor(quiet, sched, cfg)
per_block = [
    np.linalg.norm(direct_only.tensor[:, :, blk] - ch.h_ua @ x) for blk in (0, b // 2, b - 1)
]
print(f"with the RIS path removed every block is H_UA X: {max(per_block):.2e}")
