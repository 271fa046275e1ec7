"""Rough and classical stochastic volatility: smiles, skews, and their asymptotics."""

__version__ = "0.1.0"

from roughvol.asymptotics import (
    PowerLawFit,
    TermSeries,
    bergomi_curvature_limit,
    bergomi_skew_limit,
    curvature_bracket,
    fit_power_law,
    implied_curv_from_local,
    local_curv_from_implied,
    sabr_curvature_gap,
    skew_ratio_limit,
)
from roughvol.experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    run_power_law,
    run_sabr_curvature,
    run_selftest,
    run_skew_ratio,
    write_outputs,
)
from roughvol.gaussian import (
    PathBatch,
    SimGrid,
    simulate_joint_paths,
    volterra_cross_covariance,
)
from roughvol.local_vol import (
    LowWeightWarning,
    dupire_local_vol_fd,
    local_vol_curvature_fd,
    mixing_local_vol,
    mixing_local_vol_skew,
    mixing_price_grid,
)
from roughvol.models import (
    RoughBergomiParams,
    SabrParams,
    SigmaPath,
    bergomi_sigma_path,
    sabr_atm_curvatures,
)
from roughvol.pricing import (
    ConditionalLaw,
    ImpliedVolBoundsError,
    SmileSlice,
    bs_price,
    bs_vega,
    implied_curvature_fd,
    implied_skew_digital,
    implied_skew_fd,
    implied_vol,
    mixing_call_price,
    mixing_put_price,
    mixing_smile_slice,
)
