"""Model and data containers for periodic vector autoregressions.

A PVAR with period s and dimension d evolves as

    Y[n*s + v] = sum_k Phi_k(v) Y[n*s + v - k] + eps[n*s + v],   v = 1..s,

with season-dependent orders p(v) and noise covariances Sigma(v).
Seasons are 1-based everywhere in the public API.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import NumericError
from .linalg import COND_LIMIT

#: Margin below one required of the companion spectral radius.
CAUSAL_TOL = 1e-10


@dataclass
class PvarModel:
    """Periodic VAR coefficients and noise covariances.

    phi[v - 1] is a list of d x d matrices, one per lag 1..p(v).
    sigma[v - 1] is the d x d noise covariance of season v.
    """

    s: int
    d: int
    phi: list
    sigma: list

    def __post_init__(self):
        if self.s < 1 or self.d < 1:
            raise ValueError("period and dimension must be positive")
        if len(self.phi) != self.s or len(self.sigma) != self.s:
            raise ValueError("need one coefficient list and one covariance per season")
        self.phi = [[np.array(m, dtype=float) for m in lags] for lags in self.phi]
        self.sigma = [np.array(m, dtype=float) for m in self.sigma]
        for lags in self.phi:
            for m in lags:
                if m.shape != (self.d, self.d):
                    raise ValueError("coefficient matrices must be d x d")
        for m in self.sigma:
            if m.shape != (self.d, self.d):
                raise ValueError("covariances must be d x d")

    def p(self, season):
        """Autoregressive order of a season (1-based)."""
        return len(self.phi[season - 1])

    @property
    def max_p(self):
        return max((len(l) for l in self.phi), default=0)

    def phi_at(self, season, lag):
        """Phi_lag(season), with zero for lags beyond p(season)."""
        if lag < 1:
            raise ValueError("lag must be at least 1")
        lags = self.phi[season - 1]
        if lag <= len(lags):
            return lags[lag - 1]
        return np.zeros((self.d, self.d))


@dataclass
class PeriodicSeries:
    """Observed series of N full cycles plus an optional presample.

    data has shape (N*s, d); row t-1 holds Y[t] for t = 1..N*s.
    presample has shape (L, d) in chronological order, so its last row
    is Y[0], the one before is Y[-1], and so on.  A stack of R series
    has data (R, N*s, d) and presample (R, L, d).
    """

    s: int
    data: np.ndarray
    presample: np.ndarray = field(default=None)

    def __post_init__(self):
        self.data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if self.presample is None or np.size(self.presample) == 0:
            self.presample = np.zeros(self.data.shape[:-2] + (0, self.d))
        self.presample = np.atleast_2d(np.asarray(self.presample, dtype=float))
        if self.data.shape[-2] % self.s:
            raise ValueError("data length must be a whole number of cycles")
        pre = self.presample.shape
        if pre[:-2] != self.data.shape[:-2] or pre[-1] != self.d:
            raise ValueError("presample dimension differs from data")

    @property
    def d(self):
        return self.data.shape[-1]

    @property
    def n_cycles(self):
        return self.data.shape[-2] // self.s


def build_lifted_var(model):
    """Rewrite a PVAR as a season-stacked VAR on cycle-level vectors.

    The stacked vector collects one cycle in reverse season order,
    (Y[n*s + s], ..., Y[n*s + 1]).  Returns (phi0, [phi1, ..., phi_pstar])
    where phi0 is block unit-upper-triangular and p* = ceil(max_p / s).
    """
    s, d = model.s, model.d
    ds = s * d
    p_star = math.ceil(model.max_p / s) if model.max_p else 0
    phi0 = np.eye(ds)
    for r in range(s):
        season = s - r
        for c in range(r + 1, s):
            lag = c - r
            phi0[r * d:(r + 1) * d, c * d:(c + 1) * d] = -model.phi_at(season, lag)
    phis = []
    for k in range(1, p_star + 1):
        blk = np.zeros((ds, ds))
        for r in range(s):
            season = s - r
            for c in range(s):
                lag = k * s - r + c
                if 1 <= lag <= model.p(season):
                    blk[r * d:(r + 1) * d, c * d:(c + 1) * d] = model.phi_at(season, lag)
        phis.append(blk)
    return phi0, phis


def companion_spectral_radius(model):
    """Spectral radius of the companion matrix of the stacked VAR."""
    phi0, phis = build_lifted_var(model)
    if not phis:
        return 0.0
    ds = phi0.shape[0]
    if np.linalg.cond(phi0) > COND_LIMIT:
        raise NumericError("stacked lag-zero block is numerically singular")
    reduced = [np.linalg.solve(phi0, blk) for blk in phis]
    p_star = len(reduced)
    comp = np.zeros((ds * p_star, ds * p_star))
    comp[:ds] = np.hstack(reduced)
    if p_star > 1:
        comp[ds:, :ds * (p_star - 1)] = np.eye(ds * (p_star - 1))
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def require_causal(model):
    rho = companion_spectral_radius(model)
    if rho >= 1.0 - CAUSAL_TOL:
        raise NumericError(f"companion spectral radius {rho:.6g} is not below one")


def ma_coefficients(model, n_terms):
    """Moving-average weights of the causal solution, season by season.

    Returns a list indexed by season v (1-based via [v-1]) holding
    matrices C_0(v), ..., C_{n_terms}(v) with

        Y[n*s + v] = sum_i C_i(v) eps[n*s + v - i].
    """
    s, d = model.s, model.d
    # coeffs[v - 1][i] built jointly across seasons by lag recursion
    coeffs = [[np.eye(d)] for _ in range(s)]
    for i in range(1, n_terms + 1):
        for v in range(1, s + 1):
            acc = np.zeros((d, d))
            for k in range(1, model.p(v) + 1):
                if i - k < 0:
                    continue
                prev_season = (v - k - 1) % s + 1
                acc = acc + model.phi_at(v, k) @ coeffs[prev_season - 1][i - k]
            coeffs[v - 1].append(acc)
    return coeffs
