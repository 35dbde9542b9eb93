"""Training-sequence and RIS reflection-pattern design for channel estimation.

Designs uplink training matrices and RIS reflection patterns that minimize
the LS/LMMSE channel-estimation MSE under a phase-dependent reflection
amplitude, and reproduces the MSE comparisons via seeded Monte Carlo.
"""

from .baselines import SchemeId, dft_training, group_reduce, naive_pattern, onoff_pattern
from .channel import (
    ChannelRealization,
    CorrelationSpec,
    cascaded_channel,
    cascaded_correlation,
    exp_correlation,
    sample_channels,
)
from .experiments import ExperimentConfig, run_convergence, run_sweep
from .lmmse_design import design_lmmse
from .ls_design import design_ls
from .phase_model import (
    ReflectionModel,
    amplitude_of_phase,
    ideal_model,
    project_to_feasible,
    reflection_coefficient,
)
from .system import (
    ReflectionPattern,
    TrainingMatrix,
    build_S,
    estimate_lmmse,
    estimate_ls,
    mse_lmmse,
    mse_ls,
    nmse,
    simulate_reception,
)
from .types import DesignTrace, SystemConfig

__version__ = "0.1.0"

__all__ = [
    "ChannelRealization",
    "CorrelationSpec",
    "DesignTrace",
    "ExperimentConfig",
    "ReflectionModel",
    "ReflectionPattern",
    "SchemeId",
    "SystemConfig",
    "TrainingMatrix",
    "amplitude_of_phase",
    "build_S",
    "cascaded_channel",
    "cascaded_correlation",
    "design_lmmse",
    "design_ls",
    "dft_training",
    "estimate_lmmse",
    "estimate_ls",
    "exp_correlation",
    "group_reduce",
    "ideal_model",
    "mse_lmmse",
    "mse_ls",
    "naive_pattern",
    "nmse",
    "onoff_pattern",
    "project_to_feasible",
    "reflection_coefficient",
    "run_convergence",
    "run_sweep",
    "sample_channels",
    "simulate_reception",
]
