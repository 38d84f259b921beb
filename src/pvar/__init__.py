"""Estimation and inference for periodic vector autoregressions.

Supports per-season least squares fitting, robust sandwich covariance
estimation of the fitted coefficients when the innovations are
uncorrelated but dependent, modified Wald tests, seeded simulators,
exact asymptotic covariances of the simulated process, closed-form
reference values for a tractable bivariate example, and a Monte Carlo
harness.  Each public name, and each submodule, is imported on first
use, so that a command loads only the modules it calls.
"""

import importlib

_PUBLIC = {  # submodule: the names the package re-exports from it
    "analytic": ("DiagExampleParams", "example_model", "omega_closed", "psi_closed",
                 "theta_closed", "theta_s_closed"),
    "errors": (),
    "estimate": ("FitResult", "PeriodicSeries", "build_design", "demean_seasonal",
                 "fit_ols"),
    "infer": ("Restriction", "WaldResult", "chisq_sf", "normal_sf", "t_report", "wald"),
    "linalg": ("cholesky_upper", "vec"),
    "lrv": ("BANDWIDTH_RULES", "KernelSpec", "covariances", "default_bandwidth",
            "kernel_weight", "omega_hat", "psi_hac", "psi_spectral", "score_series",
            "select_ar_order_aic", "theta_sandwich", "theta_strong"),
    "mc": ("McReport", "Scenario", "preset", "run_scenario"),
    "model": ("PvarModel", "companion_spectral_radius"),
    "noise": ("NoiseSpec", "colour_matrix", "gen_noise", "simulate"),
    "oracle": ("ExactCovariances", "exact_covariances"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__version__ = "0.1.0"

__all__ = ["errors", *_HOME]


def __getattr__(name):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value
