"""Periodic vector autoregression models: container, cycle maps, causality.

A PVAR with period s and dimension d evolves as

    Y[n*s + v] = sum_k Phi_k(v) Y[n*s + v - k] + eps[n*s + v],   v = 1..s,

with season-dependent orders p(v) and noise covariances Sigma(v).
Seasons are 1-based everywhere in the public API.

The values of one cycle are A x + B e (cycle_maps), where x holds the
max_p values before the cycle and e its innovations.  The model is
causal when the map from x to the next cycle's state contracts.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, require_int

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
        self.s, self.d = require_int("s", self.s, 1), require_int("d", self.d, 1)
        if len(self.phi) != self.s or len(self.sigma) != self.s:
            raise ValueError("need one coefficient list and one covariance per season")
        self.phi = [[np.array(m, dtype=float) for m in lags] for lags in self.phi]
        self.sigma = [np.array(m, dtype=float) for m in self.sigma]
        square = (self.d, self.d)
        if any(m.shape != square for lags in self.phi for m in lags):
            raise ValueError("coefficient matrices must be d x d")
        if any(m.shape != square for m in self.sigma):
            raise ValueError("covariances must be d x d")

    def p(self, season):
        """Autoregressive order of a season (1-based)."""
        return len(self.phi[season - 1])

    @property
    def max_p(self):
        return max((len(l) for l in self.phi), default=0)


def cycle_maps(model):
    """(A, B) such that the values of one cycle are A x + B e.

    x stacks the max_p values before the cycle, e the cycle's s
    innovations and A x + B e its s values, each oldest first.
    """
    s, d, max_p = model.s, model.d, model.max_p
    # the step recursion run on the identity: z[i] maps (x, e) to value i
    z = np.eye((max_p + s) * d).reshape(max_p + s, d, -1)
    for i, lags in enumerate(model.phi, start=max_p):
        for k, phi in enumerate(lags, start=1):
            z[i] += phi @ z[i - k]
    return np.split(z[max_p:].reshape(s * d, -1), [max_p * d], axis=1)


def companion_spectral_radius(model):
    """Spectral radius of the cycle state map F; 0.0 when max_p is 0.

    F maps the state x, the max_p values before a cycle, to the last
    max_p values of (x, A x), (A, B) = cycle_maps(model).  It has the
    nonzero eigenvalues of the companion matrix of the season-stacked
    VAR on p* = ceil(max_p / s) cycles: with pi taking the newest max_p
    values of a stack and K mapping x to the next stack (the cycle A x
    and the (p* - 1) s values the companion shifts down, all in x), the
    companion is K pi and F is pi K.
    """
    A = cycle_maps(model)[0]
    F = np.vstack([np.eye(A.shape[1]), A])[len(A):]
    return float(np.abs(np.linalg.eigvals(F)).max(initial=0.0))


def require_causal(model):
    rho = companion_spectral_radius(model)
    if rho >= 1.0 - CAUSAL_TOL:
        raise NumericError(f"companion spectral radius {rho:.6g} is not below one")


def ma_coefficients(model, n_terms):
    """Moving-average weights of the causal solution, season by season.

    Returns a list indexed by season v (1-based via [v-1]) holding
    matrices C_0(v), ..., C_{n_terms}(v), n_terms >= 0, with

        Y[n*s + v] = sum_i C_i(v) eps[n*s + v - i].
    """
    s, d = model.s, model.d
    # coeffs[v - 1][i] built jointly across seasons by lag recursion
    coeffs = [[np.eye(d)] for _ in range(s)]
    for i in range(1, require_int("n_terms", n_terms, 0) + 1):
        for v in range(1, s + 1):
            acc = np.zeros((d, d))
            for k, phi in enumerate(model.phi[v - 1][:i], start=1):
                acc = acc + phi @ coeffs[(v - k - 1) % s][i - k]
            coeffs[v - 1].append(acc)
    return coeffs
