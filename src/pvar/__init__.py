"""Estimation and inference for periodic vector autoregressions.

Supports least squares fitting (unconstrained and under affine
restrictions), robust sandwich covariance estimation of the fitted
coefficients when the innovations are uncorrelated but dependent,
modified Wald tests, seeded simulators, exact asymptotic covariances
of the simulated process, closed-form reference values for a
tractable bivariate example, and a Monte Carlo harness.
"""

from . import errors
from .analytic import (DiagExampleParams, example_model, omega_closed,
                       psi_closed, theta_closed, theta_s_closed)
from .estimate import (ConstraintSpec, FitResult, build_design,
                       demean_seasonal, fit_constrained, fit_ols)
from .infer import (Restriction, WaldResult, chisq_sf, normal_sf, t_report,
                    wald)
from .linalg import cholesky_upper, unvec, vec
from .lrv import (BANDWIDTH_RULES, KernelSpec, covariances, default_bandwidth,
                  kernel_weight, lambda_hat, omega_hat, psi_hac, psi_spectral,
                  score_series, select_ar_order_aic, theta_sandwich,
                  theta_strong, theta_xi)
from .mc import McReport, Scenario, preset, run_scenario, sse_summary
from .model import (PeriodicSeries, PvarModel, build_lifted_var,
                    companion_spectral_radius, is_causal, ma_coefficients)
from .noise import NoiseSpec, gen_noise, simulate
from .oracle import ExactCovariances, exact_covariances

__version__ = "0.1.0"

__all__ = [
    "BANDWIDTH_RULES", "ConstraintSpec", "DiagExampleParams",
    "ExactCovariances", "FitResult", "KernelSpec", "McReport",
    "PeriodicSeries", "PvarModel", "Restriction", "Scenario", "WaldResult",
    "build_design", "build_lifted_var", "cholesky_upper", "chisq_sf",
    "companion_spectral_radius", "covariances", "default_bandwidth",
    "demean_seasonal", "errors", "exact_covariances", "example_model",
    "fit_constrained", "fit_ols", "gen_noise", "is_causal", "kernel_weight",
    "lambda_hat", "ma_coefficients", "normal_sf", "omega_closed",
    "omega_hat", "preset", "psi_closed", "psi_hac", "psi_spectral",
    "run_scenario", "score_series", "select_ar_order_aic", "simulate",
    "sse_summary", "t_report", "theta_closed", "theta_s_closed",
    "theta_sandwich", "theta_strong", "theta_xi", "unvec", "vec", "wald",
]
