"""Tensor-based channel estimation for a RIS-assisted MIMO uplink.

Channel synthesis, training-frame construction, three estimators (two-stage
RIS OFF-ON, joint alternating LS, stacked LS baseline), and a seeded Monte
Carlo harness that benchmarks them on NMSE-vs-SNR and operation counts.
"""

from .channels import ChannelModelConfig, ChannelSet, draw_channels, link_gains, pathloss
from .estimators import (
    EstimatorConfig,
    e_als_estimate,
    ls_baseline,
    resolve_scaling,
    two_stage_estimate,
)
from .harness import ExperimentConfig, aggregate_records, run_experiment
from .metrics import complexity_formula, nmse
from .signals import SystemConfig, make_schedule, noiseless_tensor, synthesize
from .tensor_ops import crandn, dft_matrix, khatri_rao, unfold_mode1, unfold_mode2

__version__ = "0.1.0"
