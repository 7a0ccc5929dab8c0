"""flowgrid: step-size schedules, exact-oracle samplers, and TV diagnostics.

The package is organized around six pieces:

* :mod:`flowgrid.schedules` — uniform / U-shaped / schedule-induced time
  grids and the geometric-warmup noising schedule.
* :mod:`flowgrid.targets` — Gaussian-mixture targets with closed-form
  posterior moments, velocity and score oracles, and two corrupted oracles
  (scale-bias and additive-field).
* :mod:`flowgrid.samplers` — deterministic and stochastic samplers driven by
  those oracles, plus an exact affine pushforward on the same oracles,
  used to validate them.
* :mod:`flowgrid.localization` — time changes tying the flow, diffusion and
  observation-process clocks together, with simulators and equivalence
  checks.
* :mod:`flowgrid.metrics` — a pinned classifier two-sample TV estimator,
  its 1-D Gaussian oracle, and closed-form TV bounds for diagonal Gaussians.
* :mod:`flowgrid.harness` — config parsing and the grid-comparison
  experiment sweep, with a CLI in :mod:`flowgrid.cli`.
"""

from .batch import BatchMeta, SampleBatch
from .errors import (
    DomainError,
    FlowgridError,
    NonFiniteState,
    NoRootError,
    ParseError,
)
from .harness import (
    DeltaRule,
    ExperimentSpec,
    ResultRow,
    parse_config,
    run_fig2_experiment,
    sampler_fits_grid,
)
from .localization import (
    EquivalenceReport,
    ForwardPath,
    ProcessKind,
    check_marginal_equivalence,
    covariance_ode_residual,
    ddpm_time_from_sl,
    interpolant_time_change,
    mix_weight_from_rf_time,
    rf_time_from_ddpm,
    rf_time_from_sl,
    simulate_forward,
    sl_time_from_ddpm,
    sl_time_from_rf,
)
from .metrics import (
    TvEstimate,
    estimate_tv,
    gaussian_tv_bounds,
    moment_stats,
    tv_oracle_gaussian_1d,
)
from .samplers import (
    PushforwardPath,
    StocRfCoefficients,
    ddim_rf,
    ddim_step_sizes,
    ddpm_sample,
    gaussian_pushforward,
    interpolation_scale2,
    langevin_rf,
    rf_euler,
    stoc_rf,
    stoc_rf_coefficients,
)
from .schedules import (
    DdpmSchedule,
    GridKind,
    TimeGrid,
    build_ddpm_schedule,
    build_uniform_grid,
    build_ushaped_grid,
    ddpm_induced_rf_grid,
    default_delta,
    solve_growth,
    time_from_mix_weight,
)
from .targets import (
    AdditiveFieldOracle,
    ExactOracle,
    ScaleBiasOracle,
    Target,
    blur_samples,
    posterior_moments,
    sample_blurred_target,
    sample_target,
    score,
    velocity,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "FlowgridError",
    "NonFiniteState",
    "NoRootError",
    "ParseError",
    "DdpmSchedule",
    "GridKind",
    "TimeGrid",
    "build_ddpm_schedule",
    "build_uniform_grid",
    "build_ushaped_grid",
    "ddpm_induced_rf_grid",
    "default_delta",
    "solve_growth",
    "time_from_mix_weight",
    "BatchMeta",
    "SampleBatch",
    "AdditiveFieldOracle",
    "ExactOracle",
    "ScaleBiasOracle",
    "Target",
    "blur_samples",
    "posterior_moments",
    "sample_blurred_target",
    "sample_target",
    "score",
    "velocity",
    "EquivalenceReport",
    "ForwardPath",
    "ProcessKind",
    "check_marginal_equivalence",
    "covariance_ode_residual",
    "ddpm_time_from_sl",
    "interpolant_time_change",
    "mix_weight_from_rf_time",
    "rf_time_from_ddpm",
    "rf_time_from_sl",
    "simulate_forward",
    "sl_time_from_ddpm",
    "sl_time_from_rf",
    "TvEstimate",
    "estimate_tv",
    "gaussian_tv_bounds",
    "moment_stats",
    "tv_oracle_gaussian_1d",
    "DeltaRule",
    "ExperimentSpec",
    "ResultRow",
    "parse_config",
    "run_fig2_experiment",
    "sampler_fits_grid",
    "PushforwardPath",
    "StocRfCoefficients",
    "ddim_rf",
    "ddim_step_sizes",
    "ddpm_sample",
    "gaussian_pushforward",
    "interpolation_scale2",
    "langevin_rf",
    "rf_euler",
    "stoc_rf",
    "stoc_rf_coefficients",
    "__version__",
]
