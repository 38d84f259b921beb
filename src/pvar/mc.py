"""Monte Carlo harness: replicate simulate -> fit -> test pipelines.

Each scenario simulates a known PVAR, fits it by least squares, builds
the standard and robust covariance estimates, and runs Wald tests of
linear restrictions, aggregating rejection frequencies over many
replications.  Replication r draws its seed as base_seed XOR r, so a
report is a pure function of the scenario.  A scenario names its Wald
tests by the values of lrv.COV_METHODS; PRESETS holds the built-in ones.

CHUNK consecutive replications go through the pipeline together: one
batched noise.simulate call draws their series as one stack, one fit_ols
call fits it, and one lrv.covariances call and one infer.wald call per
season, on all methods at once, test it.  Each slice of a stacked draw
or estimate equals that of its replication alone bit for bit, and the
report sums the stacked results row by row in seed order.  If a chunk
fails anywhere, each of its replications is drawn, fitted and tested
again alone, and only those that fail alone count as failures: a report,
failures included, does not depend on CHUNK.
"""

from collections import Counter
from dataclasses import dataclass, field
import time

import numpy as np

from .errors import DataError, NumericError, PvarError, require_int, require_positive
from .estimate import fit_ols
from .infer import Restriction, wald
from .linalg import vec
from .lrv import COV_METHODS, KernelSpec, covariances, default_bandwidth
# psi_hac stays importable from here: bench/test_bench.py traces it in mc
from .lrv import psi_hac  # noqa: F401
from .model import PvarModel
from .noise import NoiseSpec, simulate

#: Replications whose series one noise.simulate call draws together.
CHUNK = 10
#: The nominal sizes whose rejection rates a report gives.
LEVELS = (0.01, 0.05, 0.10)


@dataclass
class Scenario:
    """A Monte Carlo study: reps and n_cycles >= 1 and base_seed >= 0 are
    integers (require_int), a bandwidth is a real > 0 (require_positive),
    and season v's restriction is None or a Restriction of d^2 p(v) columns."""
    name: str
    model: PvarModel
    noise: NoiseSpec
    n_cycles: int
    reps: int
    restrictions: list = field(default=None)  # one per season, or None
    methods: tuple = tuple(COV_METHODS.values())  # the tests' report names
    base_seed: int = 424243
    bandwidth: float = None  # of the Bartlett HAC; None -> Andrews at n_cycles

    def __post_init__(self):
        self.reps = require_int("reps", self.reps, 1)
        self.n_cycles = require_int("n_cycles", self.n_cycles, 1)
        self.base_seed = require_int("base_seed", self.base_seed, 0)
        if self.bandwidth is not None:
            self.bandwidth = require_positive("bandwidth", self.bandwidth)
        for i, m in enumerate(self.methods):
            if m not in COV_METHODS.values():
                raise ValueError(f"unknown method {m!r}")
            if m in self.methods[:i]:
                raise ValueError(f"method {m!r} repeated")
        if self.restrictions is not None and len(self.restrictions) != self.model.s:
            raise ValueError(f"restrictions needs one entry per season, {self.model.s}")
        for v, rest in enumerate(self.restrictions or (), start=1):
            k = self.model.d ** 2 * self.model.p(v)
            if not (rest is None or isinstance(rest, Restriction) and rest.R0.shape[1] == k):
                raise ValueError(f"season {v}: restriction must be None or a Restriction "
                                 f"of {k} columns")

    def hac_spec(self):
        b = self.bandwidth
        return KernelSpec("bartlett", default_bandwidth(self.n_cycles) if b is None else b)


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


def _fit_and_test(scenario, rs):
    """Draw, fit and test the R replications rs as one stack: per season
    (beta_hat (R, k), Theta-hat diagonals (methods, R, k), p-values
    (methods, R) or None where the season has no restriction), and n_used."""
    series = simulate(scenario.model, scenario.n_cycles, scenario.noise,
                      seed=[scenario.base_seed ^ r for r in rs])
    fit = fit_ols(series, [len(lags) for lags in scenario.model.phi], demean=False)
    n, names = fit.n_used, scenario.methods
    method = {test: m for m, test in COV_METHODS.items()}
    thetas = covariances(fit, [method[name] for name in names], scenario.hac_spec())
    seasons = []
    for v, beta in enumerate(fit.beta_hat, start=1):
        theta = np.array([thetas[v][method[name]] for name in names]).reshape(
            (len(names),) + beta.shape + beta.shape[-1:])
        rest = scenario.restrictions[v - 1] if scenario.restrictions else None
        pvals = (wald(np.broadcast_to(beta, theta.shape[:-1]), theta, n, rest).p_value
                 if rest is not None and names else None)  # all methods at once
        seasons.append((beta, np.diagonal(theta, axis1=-2, axis2=-1), pvals))
    return seasons, n


def _chunk(scenario, rs):
    """_fit_and_test results and errors of replications rs, in seed order:
    the stacked call's or, if it fails anywhere, each replication's alone."""
    try:
        return [_fit_and_test(scenario, rs)], []
    except PvarError:
        pass
    results, errors = [], []
    for r in rs:
        try:
            results.append(_fit_and_test(scenario, [r]))
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
    names, levels = scenario.methods, np.array(LEVELS)
    for v in range(1, model.s + 1):
        # a cumsum adds the rows one at a time in seed order, whatever
        # CHUNK is (np.add.reduce pairs the rows of a single column)
        parts = [seasons[v - 1] for seasons, _ in results]
        beta = np.concatenate([b for b, _, _ in parts])
        gap = beta - (vec(np.hstack(model.phi[v - 1])) if model.p(v) else 0.0)
        mean, sse, square = (np.cumsum(np.stack([beta, n * gap * gap, beta * beta]),
                                       axis=1)[:, -1] / completed)
        diag = np.cumsum(np.concatenate([t for _, t, _ in parts], axis=1),
                         axis=1)[:, -1] / completed
        for table, row in ((coef_mean, mean), (coef_sse, sse),
                           (coef_var, square - mean * mean)):
            table.update(((v, i), x) for i, x in enumerate(row.tolist()))
        theta_mean.update(((v, name, i), x) for name, row in zip(names, diag.tolist())
                          for i, x in enumerate(row))
        if parts[0][2] is not None:
            p = np.concatenate([pvals for _, _, pvals in parts], axis=1)
            freq = (p[..., None] < levels).sum(axis=1) / completed
            rejection.update(((v, name, a), x)
                             for name, row in zip(names, freq.tolist())
                             for a, x in zip(LEVELS, row))
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
    tests = Restriction.parse([f"phi[{v}](2,2)=0" for v in range(1, 6)], 5, 2, [1] * 5)
    return Scenario(name, _five_season_model(phi22), NoiseSpec(kind=kind, m=2),
                    default_n if n_cycles is None else n_cycles,
                    1000 if reps is None else reps, restrictions=list(tests.values()),
                    base_seed=424243 if base_seed is None else base_seed,
                    bandwidth=bandwidth)
