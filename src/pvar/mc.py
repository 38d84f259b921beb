"""Monte Carlo harness: replicate simulate -> fit -> test pipelines.

Each scenario simulates a known PVAR, fits it by least squares, builds
the standard and robust covariance estimates, and runs Wald tests of
linear restrictions, aggregating rejection frequencies over many
replications.  Replication r draws its seed as base_seed XOR r, so a
report is a pure function of the scenario.  A scenario names its Wald
tests by the values of lrv.COV_METHODS; PRESETS holds the built-in ones.

CHUNK consecutive replications go through the pipeline together: one
batched noise.simulate call draws their series as one stack, one
fit_ols call fits it, and one lrv.covariances call and one infer.wald
call per season and method test it.  Each slice of a stacked estimate
equals the estimate of its series alone bit for bit, and the results
stay stacked up to the report, which sums them row by row in seed
order, so it does not depend on the chunk size.  If the stacked
pipeline fails, each series of the chunk goes through it again on its
own, so only the replications that fail on their own count as failures.
"""

from collections import Counter
from dataclasses import dataclass, field
import time

import numpy as np

from .errors import DataError, NumericError, PvarError
from .estimate import fit_ols
from .infer import Restriction, wald
from .linalg import vec
from .lrv import COV_METHODS, KernelSpec, covariances, default_bandwidth
# psi_hac stays importable from here: bench/test_bench.py traces it in mc
from .lrv import psi_hac  # noqa: F401
from .model import PeriodicSeries, PvarModel
from .noise import NoiseSpec, simulate

#: Replications whose series one noise.simulate call draws together.
CHUNK = 10
DEFAULT_LEVELS = (0.01, 0.05, 0.10)


@dataclass
class Scenario:
    name: str
    model: PvarModel
    noise: NoiseSpec
    n_cycles: int
    reps: int
    restrictions: list = field(default=None)  # one per season, or None
    methods: tuple = tuple(COV_METHODS.values())  # the tests' report names
    levels: tuple = DEFAULT_LEVELS
    base_seed: int = 424243
    bandwidth: float = None  # of the Bartlett HAC; None -> Andrews at n_cycles

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be at least 1")
        if any(not 0 < a < 1 for a in self.levels):
            raise ValueError("levels must lie strictly inside (0, 1)")
        for m in self.methods:
            if m not in COV_METHODS.values():
                raise ValueError(f"unknown method {m!r}")
        if self.restrictions is not None and len(self.restrictions) != self.model.s:
            raise ValueError(f"restrictions needs one entry per season, {self.model.s}")

    def hac_spec(self):
        b = self.bandwidth
        if b is None:
            b = default_bandwidth(self.n_cycles, "andrews")
        return KernelSpec("bartlett", b)


@dataclass
class McReport:
    scenario: str
    reps: int
    completed: int
    failures: int
    failure_reasons: dict    # (error class, message) -> count, first seen first
    rejection: dict          # (season, method, level) -> frequency
    coef_mean: dict          # (season, index) -> mean estimate
    coef_sse: dict           # (season, index) -> mean N (est - true)^2
    coef_var: dict           # (season, index) -> empirical variance
    theta_mean: dict         # (season, method, index) -> mean diagonal
    wall_time: float


def _fit_and_test(scenario, series):
    """Fit and test a stack of R series: per season the tuple (beta_hat
    (R, k), {test: Theta-hat diagonal (R, k)}, {test: p-values (R,)}, the
    last {} where the season has no restriction), and fit.n_used."""
    fit = fit_ols(series, [len(lags) for lags in scenario.model.phi], demean=False)
    n = fit.n_used
    method = {test: m for m, test in COV_METHODS.items()}
    thetas = covariances(fit, [method[name] for name in scenario.methods],
                         scenario.hac_spec())
    seasons = []
    for v in range(1, fit.s + 1):
        beta = fit.beta_hat[v - 1]
        season = {name: thetas[v][method[name]] for name in scenario.methods}
        rest = scenario.restrictions[v - 1] if scenario.restrictions else None
        pvals = {} if rest is None else {
            name: wald(beta, theta, n, rest).p_value for name, theta in season.items()}
        seasons.append((beta, {name: np.diagonal(theta, axis1=-2, axis2=-1)
                               for name, theta in season.items()}, pvals))
    return seasons, n


def _chunk(scenario, rs):
    """_fit_and_test results of replications rs, whose series one simulate
    call draws: the chunk's stacked one or, if that fails, one per series
    that passes alone; and the failures' errors, in seed order."""
    try:
        chunk = simulate(scenario.model, scenario.n_cycles, scenario.noise,
                         seed=[scenario.base_seed ^ r for r in rs])
    except PvarError as exc:
        return [], [exc] * len(rs)
    try:
        return [_fit_and_test(scenario, chunk)], []
    except PvarError:
        pass
    results, errors = [], []
    for i in range(len(rs)):
        one = PeriodicSeries(chunk.s, chunk.data[i:i + 1], chunk.presample[i:i + 1])
        try:
            results.append(_fit_and_test(scenario, one))
        except PvarError as exc:
            errors.append(exc)
    return results, errors


def run_scenario(scenario):
    """Run all replications in seed order and aggregate a report; if all
    fail, raise the first failure's class, DataError or NumericError."""
    t0 = time.perf_counter()
    results, errors = [], []
    for first in range(0, scenario.reps, CHUNK):
        done, failed = _chunk(scenario, range(first, min(first + CHUNK, scenario.reps)))
        results += done
        errors += failed
    if not results:
        why = (f"scenario {scenario.name!r}: every replication failed, "
               f"the first with: {errors[0]}")
        if isinstance(errors[0], DataError):
            raise DataError(why)
        raise NumericError(why)
    completed = scenario.reps - len(errors)
    n = results[0][1]  # the same in every fit: it depends on n_cycles and the orders
    model = scenario.model
    coef_mean, coef_sse, coef_var, theta_mean, rejection = {}, {}, {}, {}, {}
    for v in range(1, model.s + 1):
        # sum adds the rows one at a time in seed order, whatever CHUNK is
        parts = [seasons[v - 1] for seasons, _ in results]
        beta = np.concatenate([b for b, _, _ in parts])
        gap = beta - (vec(np.hstack(model.phi[v - 1])) if model.p(v) else 0.0)
        mean = sum(beta) / completed
        sse = sum(n * gap * gap) / completed
        var = sum(beta * beta) / completed - mean * mean
        coef_mean.update(((v, i), x) for i, x in enumerate(mean))
        coef_sse.update(((v, i), x) for i, x in enumerate(sse))
        coef_var.update(((v, i), x) for i, x in enumerate(var))
        for name in parts[0][1]:
            diag = sum(np.concatenate([t[name] for _, t, _ in parts])) / completed
            theta_mean.update(((v, name, i), x) for i, x in enumerate(diag.tolist()))
        for name in parts[0][2]:
            p = np.concatenate([pvals[name] for _, _, pvals in parts])
            rejection.update(((v, name, a), int((p < a).sum()) / completed)
                             for a in scenario.levels)
    reasons = Counter((type(exc).__name__, str(exc)) for exc in errors)
    return McReport(scenario.name, scenario.reps, completed, len(errors),
                    failure_reasons=dict(reasons), rejection=rejection,
                    coef_mean=coef_mean, coef_sse=coef_sse, coef_var=coef_var,
                    theta_mean=theta_mean, wall_time=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Built-in scenarios: a five-season bivariate diagonal PVAR(1).

_PHI11 = (-1.43, 0.46, 1.23, 0.30, 0.90)
_PHI22_BASE = (0.62, 0.70, -0.30, 0.45, 0.20)
_SIGMAS = (
    ((1.00, 0.05), (0.05, 1.50)),
    ((1.60, 0.30), (0.30, 0.50)),
    ((2.20, -0.20), (-0.20, 0.80)),
    ((2.50, -0.10), (-0.10, 1.20)),
    ((0.90, 0.00), (0.00, 1.70)),
)


def _five_season_model(phi22):
    phi = [[np.diag([_PHI11[v], phi22[v]])] for v in range(5)]
    sigma = [np.array(m, dtype=float) for m in _SIGMAS]
    return PvarModel(s=5, d=2, phi=phi, sigma=sigma)


#: Built-in scenarios: name -> (Phi22 diagonal, noise kind, default
#: n_cycles, HAC bandwidth).  model-I/II: size study (Phi22 = 0 under the
#: null), strong vs weak product noise (m=2); model-III/IV: power study
#: (Phi22 = 0.05).  dgp-strong/dgp-weak: the base process with both
#: diagonals nonzero, used for estimator-accuracy summaries.  Each preset
#: fixes its HAC bandwidth, so n_cycles changes only the sample size.
PRESETS = {
    "model-I": ((0.0,) * 5, "strong", 1000, 1.0 / 21.0),
    "model-II": ((0.0,) * 5, "weak-product", 1000, 1.0 / 21.0),
    "model-III": ((0.05,) * 5, "strong", 4000, 1.0 / 12.0),
    "model-IV": ((0.05,) * 5, "weak-product", 4000, 1.0 / 12.0),
    "dgp-strong": (_PHI22_BASE, "strong", 1000, 1.0 / 21.0),
    "dgp-weak": (_PHI22_BASE, "weak-product", 1000, 1.0 / 21.0),
}


def preset(name, n_cycles=None, reps=None, base_seed=None):
    """The Scenario of PRESETS[name], with any argument given replacing
    its default."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    phi22, kind, default_n, bandwidth = PRESETS[name]
    # each season tests Phi22 = 0, the last entry of vec(Phi(v)) at d=2, p=1
    restrictions = [Restriction.coordinates([3], 4) for _ in range(5)]
    return Scenario(name, _five_season_model(phi22), NoiseSpec(kind=kind, m=2),
                    default_n if n_cycles is None else n_cycles,
                    1000 if reps is None else reps, restrictions=restrictions,
                    base_seed=424243 if base_seed is None else base_seed,
                    bandwidth=bandwidth)
