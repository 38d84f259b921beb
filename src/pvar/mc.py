"""Monte Carlo harness: replicate simulate -> fit -> test pipelines.

Each scenario simulates a known PVAR, fits it by least squares, builds
the standard and robust covariance estimates, and runs Wald tests of
linear restrictions, aggregating rejection frequencies over many
replications.  Replication r draws its seed as base_seed XOR r, so a
report is a pure function of the scenario.
"""

from dataclasses import dataclass, field
import time

import numpy as np

from .errors import PvarError
from .estimate import fit_ols
from .infer import Restriction, wald
from .linalg import vec
# psi_hac stays importable from here: bench/test_bench.py traces it in mc
from .lrv import KernelSpec, covariances, default_bandwidth, psi_hac  # noqa: F401
from .model import PvarModel
from .noise import NoiseSpec, simulate

#: Report name of each test -> name of its covariance in lrv.covariances.
METHODS = {"standard": "strong", "modified-sp": "sp", "modified-hac": "hac"}
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
    demean: bool = False
    kernel: str = "bartlett"
    bandwidth: float = None  # None -> 1/21 at N=1000, otherwise Andrews

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if any(not 0 < a < 1 for a in self.levels):
            raise ValueError("levels must lie strictly inside (0, 1)")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")

    def hac_spec(self):
        b = self.bandwidth
        if b is None:
            b = 1.0 / 21.0 if self.n_cycles == 1000 else \
                default_bandwidth(self.n_cycles, "andrews")
        return KernelSpec(self.kernel, b)


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


def _replication(scenario, seed):
    """One simulate -> fit -> covariances -> tests pass."""
    model = scenario.model
    series = simulate(model, scenario.n_cycles, scenario.noise, seed=seed)
    fit = fit_ols(series, [model.p(v) for v in range(1, model.s + 1)],
                  demean=scenario.demean)
    n = fit.n_used
    thetas = covariances(fit, [METHODS[name] for name in scenario.methods],
                         scenario.hac_spec())
    out = []
    for v in range(1, model.s + 1):
        beta = fit.beta_hat[v - 1]
        season = {name: thetas[v][METHODS[name]] for name in scenario.methods}
        rest = scenario.restrictions[v - 1] if scenario.restrictions else None
        pvals = {}
        if rest is not None:
            for name, theta in season.items():
                pvals[name] = wald(beta, theta, n, rest, method=name).p_value
        out.append({"beta": beta, "thetas": season, "pvals": pvals, "n": n})
    return out


def run_scenario(scenario):
    """Run all replications serially and aggregate a report."""
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
    failures = 0
    for r in range(scenario.reps):
        try:
            rows = _replication(scenario, scenario.base_seed ^ r)
        except PvarError:
            failures += 1
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
        raise PvarError(f"scenario {scenario.name!r}: every replication failed")
    freq = {k: c / completed for k, c in reject.items()}
    return McReport(
        scenario=scenario.name,
        reps=scenario.reps,
        completed=completed,
        failures=failures,
        rejection=freq,
        coef_mean={k: v / completed for k, v in sums.items()},
        coef_sse={k: v / completed for k, v in sums_sse.items()},
        coef_var={k: sums_sq[k] / completed - (sums[k] / completed) ** 2
                  for k in sums},
        theta_mean={k: v / completed for k, v in theta_sums.items()},
        wall_time=time.perf_counter() - t0,
    )


def sse_summary(report, season=None):
    """Pairs (empirical SSE, mean estimated variance) per coefficient.

    The empirical column is the replication mean of N (est - true)^2;
    the estimated columns are the replication means of the diagonal of
    each covariance estimate.
    """
    rows = []
    seasons = [season] if season else sorted({k[0] for k in report.coef_sse})
    for v in seasons:
        idxs = sorted(i for (vv, i) in report.coef_sse if vv == v)
        for i in idxs:
            est = {name: report.theta_mean.get((v, name, i))
                   for name in METHODS if (v, name, i) in report.theta_mean}
            rows.append({"season": v, "index": i,
                         "empirical": report.coef_sse[(v, i)],
                         "estimated": est})
    return rows


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
    used for estimator-accuracy summaries.
    """
    presets = {
        "model-I": ((0.0,) * 5, "strong", 1000),
        "model-II": ((0.0,) * 5, "weak-product", 1000),
        "model-III": ((0.05,) * 5, "strong", 4000),
        "model-IV": ((0.05,) * 5, "weak-product", 4000),
        "dgp-strong": (_PHI22_BASE, "strong", 1000),
        "dgp-weak": (_PHI22_BASE, "weak-product", 1000),
    }
    if name not in presets:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(presets)}")
    phi22, kind, default_n = presets[name]
    model = _five_season_model(phi22)
    return Scenario(
        name=name,
        model=model,
        noise=NoiseSpec(kind=kind, m=2),
        n_cycles=n_cycles or default_n,
        reps=reps or 1000,
        restrictions=_phi22_restrictions(model),
        base_seed=base_seed if base_seed is not None else 424243,
    )


PRESET_NAMES = ("model-I", "model-II", "model-III", "model-IV",
                "dgp-strong", "dgp-weak")
