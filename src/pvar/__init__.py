"""Estimation and inference for periodic vector autoregressions.

Supports per-season least squares fitting, robust sandwich covariance
estimation of the fitted coefficients when the innovations are
uncorrelated but dependent, modified Wald tests, seeded simulators,
exact asymptotic covariances of the simulated process, closed-form
reference values for a tractable bivariate example, and a Monte Carlo
harness.
"""

from . import errors
from .analytic import (DiagExampleParams, example_model, omega_closed,
                       psi_closed, theta_closed, theta_s_closed)
from .estimate import FitResult, build_design, demean_seasonal, fit_ols
from .infer import (Restriction, WaldResult, chisq_sf, normal_sf, t_report,
                    wald)
from .linalg import cholesky_upper, vec
from .lrv import (BANDWIDTH_RULES, KernelSpec, covariances, default_bandwidth,
                  kernel_weight, omega_hat, psi_hac, psi_spectral, score_series,
                  select_ar_order_aic, theta_sandwich, theta_strong)
from .mc import McReport, Scenario, preset, run_scenario
from .model import (PeriodicSeries, PvarModel, companion_spectral_radius,
                    ma_coefficients)
from .noise import NoiseSpec, gen_noise, simulate
from .oracle import ExactCovariances, exact_covariances

__version__ = "0.1.0"

__all__ = [
    "BANDWIDTH_RULES", "DiagExampleParams", "ExactCovariances", "FitResult",
    "KernelSpec", "McReport", "PeriodicSeries", "PvarModel", "Restriction",
    "Scenario", "WaldResult", "build_design",
    "cholesky_upper", "chisq_sf", "companion_spectral_radius",
    "covariances", "default_bandwidth", "demean_seasonal", "errors",
    "exact_covariances", "example_model", "fit_ols", "gen_noise",
    "kernel_weight", "ma_coefficients",
    "normal_sf", "omega_closed", "omega_hat", "preset", "psi_closed",
    "psi_hac", "psi_spectral", "run_scenario", "score_series",
    "select_ar_order_aic", "simulate", "t_report", "theta_closed",
    "theta_s_closed", "theta_sandwich", "theta_strong", "vec", "wald",
]
