"""slicelab: a pseudospectral laboratory for the 2D incompressible slice
model, deterministic and stochastically forced.

Public API is re-exported from the submodules; see README for a tour.
"""

from .diagnostics import (MaterialLoop, advect_loop, bkm_bound, circle_loop,
                          circulation, energy, generalized_enstrophy,
                          potential_vorticity)
from .dynamics import (cutoff, cutoff_factors, mollify, rhs_deterministic,
                       rhs_truncated, step_rk4)
from .errors import (CheckpointFormatError, ConfigError,
                     DiagnosticsFormatError, DivergedError, LoopDomainError,
                     SliceLabError)
from .grid import (Geometry, Grid, ScalarField, VectorField, differentiate,
                   make_grid, vector_field)
from .incompressible import divergence, max_divergence
from .checkpoint import read_checkpoint, write_checkpoint
from .config import MODES, RunConfig, parse_config, render_config
from .experiments import (AmplitudeBudgetWarning, GlobalRegularityResult,
                          McSummary, StrongConvergenceResult,
                          amplitude_threshold, gbm_max_oracle,
                          mc_global_regularity, mc_hitting,
                          mollifier_cauchy_study, stopped_lambda_mean,
                          strong_convergence_study)
from .norms import NormSpec, W1INF, ZKP_DEFAULT, norm
from .runio import CSV_HEADER, DiagnosticsRecord, append_diagnostics
from .runner import RunResult, run
from .state import Params, SimState, make_state, random_state, zero_state
from .stochastic import (AMPLITUDE_THRESHOLD, GBM_THRESHOLD, NORM_THRESHOLD,
                         LinearMultiplicative, OnlineMonitor,
                         PointwiseNemytskii, StoppingRecord, WienerPath,
                         noise_eval, refine_path, sample_wiener, step_em,
                         step_transformed, transform_backward,
                         transform_forward)

__version__ = "0.1.0"

__all__ = [
    "MaterialLoop", "advect_loop", "bkm_bound", "circle_loop", "circulation",
    "energy", "generalized_enstrophy", "potential_vorticity",
    "cutoff", "cutoff_factors", "mollify", "rhs_deterministic",
    "rhs_truncated", "step_rk4",
    "CheckpointFormatError", "ConfigError", "DiagnosticsFormatError",
    "DivergedError", "LoopDomainError", "SliceLabError",
    "Geometry", "Grid", "ScalarField", "VectorField", "differentiate",
    "make_grid", "vector_field",
    "divergence", "max_divergence",
    "NormSpec", "W1INF", "ZKP_DEFAULT", "norm",
    "Params", "SimState", "make_state", "random_state", "zero_state",
    "AMPLITUDE_THRESHOLD", "GBM_THRESHOLD", "NORM_THRESHOLD",
    "LinearMultiplicative", "OnlineMonitor", "PointwiseNemytskii",
    "StoppingRecord", "WienerPath", "noise_eval", "refine_path",
    "sample_wiener", "step_em", "step_transformed", "transform_backward",
    "transform_forward",
    "AmplitudeBudgetWarning", "GlobalRegularityResult", "McSummary",
    "StrongConvergenceResult", "amplitude_threshold", "gbm_max_oracle",
    "mc_global_regularity", "mc_hitting", "mollifier_cauchy_study",
    "stopped_lambda_mean", "strong_convergence_study",
    "read_checkpoint", "write_checkpoint",
    "MODES", "RunConfig", "parse_config", "render_config",
    "CSV_HEADER", "DiagnosticsRecord", "append_diagnostics",
    "RunResult", "run",
]
