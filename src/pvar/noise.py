"""Noise generation and model simulation.

Two noise mechanisms are provided.  "strong" draws independent
Gaussian vectors with the season's covariance.  "weak-product" builds
each innovation coordinate as a moving product of m + 1 consecutive
standard normals from a channel-specific stream, then colors the
vector with the season's covariance factor.  The product noise is
uncorrelated in time but not independent, which is the regime the
robust covariance estimators are designed for.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import cholesky_upper
from .model import PeriodicSeries, require_causal

DEFAULT_BURNIN = 500

NOISE_KINDS = ("strong", "weak-product")


@dataclass
class NoiseSpec:
    """How to draw the innovation sequence.

    kind is "strong" or "weak-product"; m is the product-window
    exponent (ignored for strong noise).
    """

    kind: str = "strong"
    m: int = 1

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind == "weak-product" and self.m < 1:
            raise ValueError("product window exponent m must be at least 1")


def gen_noise(sigmas, n_cycles, spec, rng):
    """Draw n_cycles full cycles of innovations.

    sigmas is the per-season list of d x d covariances.  Returns an
    array of shape (n_cycles * s, d) whose row t-1 is eps[t].
    """
    s = len(sigmas)
    if s == 0:
        raise DimensionMismatch("need at least one season covariance")
    d = np.asarray(sigmas[0]).shape[0]
    factors = [cholesky_upper(sig) for sig in sigmas]
    total = n_cycles * s
    if spec.kind == "strong":
        raw = rng.standard_normal((total, d))
    else:
        # raw[t] = eta[t] * eta[t+1] * ... * eta[t+m], multiplied left to right
        eta = rng.standard_normal((total + spec.m, d))
        raw = eta[:total].copy()
        for j in range(1, spec.m + 1):
            raw *= eta[j:j + total]
    eps = np.empty((total, d))
    for v in range(s):
        eps[v::s] = raw[v::s] @ factors[v]
    return eps


def simulate(model, n_cycles, spec=None, seed=0, burnin=DEFAULT_BURNIN):
    """Simulate a causal PVAR from zero initial values.

    Runs burnin extra cycles before the retained sample and returns a
    PeriodicSeries whose presample holds the max_p values preceding
    time 1, so estimation can use every retained cycle.  seed may be
    one seed or a sequence of them; a sequence returns one series per
    seed, each equal to simulating that seed on its own.  The noise of
    each seed comes from its own default_rng(seed), and the recursion
    runs once over the stacked states of all seeds.
    """
    require_causal(model)
    if spec is None:
        spec = NoiseSpec()
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    s, d, max_p = model.s, model.d, model.max_p
    total = (burnin + n_cycles) * s
    # y[max_p + t - 1, r] is Y[t] of seed r as a d x 1 column, so the
    # states of one step are contiguous.  It holds eps[t] until step t adds
    # Phi_k(v) @ Y[t - k] in place for k = 1..p(v), which rounds as a
    # single seed's recursion does; Y @ Phi.T or einsum would not for d >= 3.
    y = np.zeros((max_p + total, len(seeds), d, 1))
    for r, sd in enumerate(seeds):
        y[max_p:, r, :, 0] = gen_noise(model.sigma, burnin + n_cycles, spec,
                                       np.random.default_rng(sd))
    lags = [list(enumerate(phis, start=1)) for phis in model.phi]
    buf = np.empty(y.shape[1:])
    for i in range(max_p, max_p + total):
        row = y[i]
        for k, phi in lags[(i - max_p) % s]:
            np.matmul(phi, y[i - k], out=buf)
            row += buf
    # each series is a view of its own entries of y
    start = max_p + burnin * s
    out = [PeriodicSeries(s=s, data=y[start:, r, :, 0],
                          presample=y[start - max_p:start, r, :, 0])
           for r in range(len(seeds))]
    return out[0] if single else out
