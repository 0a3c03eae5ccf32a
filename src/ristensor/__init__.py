"""Tensor-based channel estimation for a RIS-assisted MIMO uplink.

Channel synthesis, training-frame construction, three estimators (two-stage
RIS OFF-ON, joint alternating LS, stacked LS baseline), and a seeded Monte
Carlo harness that benchmarks them on NMSE-vs-SNR and operation counts.
"""

from .channels import (
    ChannelModelConfig,
    ChannelSet,
    draw_channels,
    link_gains,
    pathloss,
    steer_ula,
    steer_ura,
)
from .estimators import (
    ChannelEstimate,
    EstimatorConfig,
    StackedLsSolver,
    als_ris,
    e_als_estimate,
    ls_baseline,
    resolve_scaling,
    two_stage_estimate,
)
from .harness import (
    ExperimentConfig,
    TrialRecord,
    aggregate_records,
    emit_results,
    load_config,
    run_experiment,
    run_trial,
)
from .metrics import ComplexityTally, aggregate_vector_nmse, complexity_formula, nmse
from .signals import (
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
from .tensor_ops import (
    SingularMatrixError,
    ShapeError,
    crandn,
    dft_matrix,
    khatri_rao,
    pinv_left,
    pinv_right,
    unfold_mode1,
    unfold_mode2,
)

__version__ = "0.1.0"
