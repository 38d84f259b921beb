"""Monte Carlo harness: replicate simulate -> fit -> test pipelines.

Each scenario simulates a known PVAR, fits it by least squares, builds
the standard and robust covariance estimates, and runs Wald tests of
linear restrictions, aggregating rejection frequencies over many
replications.  Replication r draws its seed as base_seed XOR r, so a
report is a pure function of the scenario.

CHUNK consecutive replications go through the pipeline together: one
batched noise.simulate call draws their series as one stack, one
fit_ols call fits it, and one lrv.covariances call and one infer.wald
call per season and method test it.  Each slice of a stacked estimate
equals the estimate of its series alone bit for bit, so the report
does not depend on the chunk size.  If the stacked pipeline fails,
each series of the chunk goes through it again on its own, so only
the replications that fail on their own count as failures.
"""

from dataclasses import dataclass, field
import time

import numpy as np

from .errors import DataError, NumericError, PvarError
from .estimate import fit_ols
from .infer import Restriction, wald
from .linalg import vec
# psi_hac stays importable from here: bench/test_bench.py traces it in mc
from .lrv import KernelSpec, covariances, default_bandwidth, psi_hac  # noqa: F401
from .model import PeriodicSeries, PvarModel
from .noise import NoiseSpec, simulate

#: Report name of each test -> name of its covariance in lrv.covariances.
METHODS = {"standard": "strong", "modified-sp": "sp", "modified-hac": "hac"}
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
    restrictions: list = field(default=None)  # per season, or None
    methods: tuple = tuple(METHODS)
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
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")

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
    rejection: dict          # (season, method, level) -> frequency
    coef_mean: dict          # (season, index) -> mean estimate
    coef_sse: dict           # (season, index) -> mean N (est - true)^2
    coef_var: dict           # (season, index) -> empirical variance
    theta_mean: dict         # (season, method, index) -> mean diagonal
    wall_time: float


def _fit_and_test(scenario, series):
    """Rows of each series of a stack: its fit, covariances and Wald tests."""
    model = scenario.model
    fit = fit_ols(series, [model.p(v) for v in range(1, model.s + 1)],
                  demean=False)
    n = fit.n_used
    thetas = covariances(fit, [METHODS[name] for name in scenario.methods],
                         scenario.hac_spec())
    rows = [[] for _ in series.data]  # one list per series
    for v in range(1, fit.s + 1):
        beta = fit.beta_hat[v - 1]
        season = {name: thetas[v][METHODS[name]] for name in scenario.methods}
        rest = scenario.restrictions[v - 1] if scenario.restrictions else None
        pvals = {}
        if rest is not None:
            for name, theta in season.items():
                pvals[name] = wald(beta, theta, n, rest).p_value
        for i, row in enumerate(rows):
            row.append({"beta": beta[i],
                        "thetas": {name: t[i] for name, t in season.items()},
                        "pvals": {name: p[i] for name, p in pvals.items()},
                        "n": n})
    return rows


def _replications(scenario):
    """Rows of replication r = 0, 1, ..., or the PvarError where it failed."""
    for first in range(0, scenario.reps, CHUNK):
        yield from _chunk(scenario, range(first, min(first + CHUNK, scenario.reps)))


def _chunk(scenario, rs):
    """Rows of replications rs, whose series one simulate call draws.

    A failed replication gives its error: every one of the chunk if that
    simulation fails, else one whose series fails on its own.
    """
    try:
        chunk = simulate(scenario.model, scenario.n_cycles, scenario.noise,
                         seed=[scenario.base_seed ^ r for r in rs])
    except PvarError as exc:
        return [exc] * len(rs)
    try:
        return _fit_and_test(scenario, chunk)
    except PvarError:
        pass
    rows = []
    for i in range(len(rs)):
        one = PeriodicSeries(chunk.s, chunk.data[i:i + 1], chunk.presample[i:i + 1])
        try:
            rows += _fit_and_test(scenario, one)
        except PvarError as exc:
            rows.append(exc)
    return rows


def run_scenario(scenario):
    """Run all replications in seed order and aggregate a report; if all
    fail, raise the first failure's class, DataError or NumericError."""
    t0 = time.perf_counter()
    model = scenario.model
    s = model.s
    n_coef = [model.d * model.d * model.p(v) for v in range(1, s + 1)]
    true_beta = [vec(np.hstack(model.phi[v - 1])) if model.p(v) else
                 np.zeros(0) for v in range(1, s + 1)]
    sums = {(v, i): 0.0 for v in range(1, s + 1) for i in range(n_coef[v - 1])}
    sums_sq = dict(sums)
    sums_sse = dict(sums)
    theta_sums = {}
    reject = {}
    completed = 0
    first_failure = None
    for rows in _replications(scenario):
        if isinstance(rows, PvarError):
            first_failure = first_failure or rows
            continue
        completed += 1
        for v in range(1, s + 1):
            row = rows[v - 1]
            beta = row["beta"]
            n = row["n"]
            for i in range(n_coef[v - 1]):
                sums[(v, i)] += beta[i]
                sums_sq[(v, i)] += beta[i] ** 2
                gap = beta[i] - true_beta[v - 1][i]
                sums_sse[(v, i)] += n * gap * gap
            for name, theta in row["thetas"].items():
                for i in range(n_coef[v - 1]):
                    key = (v, name, i)
                    theta_sums[key] = theta_sums.get(key, 0.0) + float(theta[i, i])
            for name, p in row["pvals"].items():
                for a in scenario.levels:
                    key = (v, name, a)
                    reject[key] = reject.get(key, 0) + (1 if p < a else 0)
    if completed == 0:
        why = (f"scenario {scenario.name!r}: every replication failed, "
               f"the first with: {first_failure}")
        if isinstance(first_failure, DataError):
            raise DataError(why)
        raise NumericError(why)
    freq = {k: c / completed for k, c in reject.items()}
    return McReport(
        scenario=scenario.name,
        reps=scenario.reps,
        completed=completed,
        failures=scenario.reps - completed,
        rejection=freq,
        coef_mean={k: v / completed for k, v in sums.items()},
        coef_sse={k: v / completed for k, v in sums_sse.items()},
        coef_var={k: sums_sq[k] / completed - (sums[k] / completed) ** 2
                  for k in sums},
        theta_mean={k: v / completed for k, v in theta_sums.items()},
        wall_time=time.perf_counter() - t0,
    )


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


def _phi22_restrictions(model):
    # vec(Phi(v)) ordering puts the (2,2) entry last for d=2, p=1
    n_coef = model.d * model.d
    return [Restriction.coordinates([3], n_coef) for _ in range(model.s)]


def preset(name, n_cycles=None, reps=None, base_seed=None):
    """Built-in scenarios.

    model-I/II: size study (Phi22 = 0 under the null), strong vs weak
    product noise (m=2); model-III/IV: power study (Phi22 = 0.05).
    dgp-strong/dgp-weak: the base process with both diagonals nonzero,
    used for estimator-accuracy summaries.  Each preset fixes its HAC
    bandwidth, so n_cycles changes only the sample size.
    """
    presets = {
        "model-I": ((0.0,) * 5, "strong", 1000, 1.0 / 21.0),
        "model-II": ((0.0,) * 5, "weak-product", 1000, 1.0 / 21.0),
        "model-III": ((0.05,) * 5, "strong", 4000, 1.0 / 12.0),
        "model-IV": ((0.05,) * 5, "weak-product", 4000, 1.0 / 12.0),
        "dgp-strong": (_PHI22_BASE, "strong", 1000, 1.0 / 21.0),
        "dgp-weak": (_PHI22_BASE, "weak-product", 1000, 1.0 / 21.0),
    }
    if name not in presets:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(presets)}")
    phi22, kind, default_n, bandwidth = presets[name]
    model = _five_season_model(phi22)
    return Scenario(
        name=name,
        model=model,
        noise=NoiseSpec(kind=kind, m=2),
        n_cycles=default_n if n_cycles is None else n_cycles,
        reps=1000 if reps is None else reps,
        restrictions=_phi22_restrictions(model),
        base_seed=base_seed if base_seed is not None else 424243,
        bandwidth=bandwidth,
    )


PRESET_NAMES = ("model-I", "model-II", "model-III", "model-IV",
                "dgp-strong", "dgp-weak")
