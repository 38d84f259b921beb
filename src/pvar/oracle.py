"""Exact asymptotic covariances of the least-squares estimator.

The moments are those of the process the simulator draws (see
noise.py), for any causal PVAR under strong or product noise.  The
innovation of season v is eps_t = M(v)' u_t, where M(v) is the upper
Cholesky factor of Sigma(v) and u_t has independent unit-variance
channels.  With the moving-average weights C_i(v) of ma_coefficients
the regressor stack X_t = (Y[t-1]', ..., Y[t-p(v)]')' of season v is

    X_t = sum_{j >= 1} G_j(v) u_{t-j},   block k of G_j(v) = C_{j-k}(v-k) M(v-j)',

so Omega(v) = sum_j G_j(v) G_j(v)'.

Under product noise each channel of u is P_t = eta_t ... eta_{t+m} for
iid standard normals eta.  The newest factor eta_{t+m} of u_t enters
no earlier u, so the scores W_t = X_t (x) eps_t are martingale
differences and Psi(v) is their lag-zero moment.  For j >= 1 the
moment E[u_{t-j}[a] u_{t-j}[b] u_t[c] u_t[e]] vanishes unless a = b and
c = e; it is E[P_{t-j}^2 P_t^2] = 3^max(0, m+1-j) when a = c and 1
across channels, which gives

    Psi(v) = Omega(v) (x) Sigma(v)
             + sum_{j=1}^{m} (3^(m+1-j) - 1) sum_a w_ja w_ja',
    w_ja = (column a of G_j(v)) (x) (row a of M(v)).

Strong noise has no correction term, so Theta(v) = Theta_S(v) =
Omega(v)^-1 (x) Sigma(v).
"""

from dataclasses import dataclass
import math

import numpy as np

from .linalg import cholesky_upper
from .lrv import omega_inverse, theta_sandwich, theta_strong
from .model import companion_spectral_radius, ma_coefficients, require_causal

#: Relative size of the neglected tail of the moving-average sum.
TAIL_TOL = 1e-17

#: Longest moving-average expansion tried before giving up.
MAX_TERMS = 1 << 16


@dataclass
class ExactCovariances:
    """Per-season exact moments; entry [v-1] belongs to season v."""

    omega: list
    psi: list
    theta_s: list
    theta: list


def _loadings(model, n_terms):
    """G_1(v), ..., G_n_terms(v) per season, each of shape (n, d p(v), d)."""
    s, d = model.s, model.d
    coeffs = ma_coefficients(model, n_terms)
    mt = [cholesky_upper(sig).T for sig in model.sigma]
    out = []
    for v in range(1, s + 1):
        p = model.p(v)
        G = np.zeros((n_terms, d * p, d))
        for j in range(1, n_terms + 1):
            for k in range(1, min(p, j) + 1):
                G[j - 1, (k - 1) * d:k * d] = \
                    coeffs[(v - k - 1) % s][j - k] @ mt[(v - j - 1) % s]
        out.append(G)
    return out


def _converged_loadings(model):
    """Loadings long enough that the last cycle adds below TAIL_TOL."""
    rho = companion_spectral_radius(model)
    cycles = math.ceil(math.log(TAIL_TOL) / math.log(rho)) if rho > 0 else 1
    n_terms = model.max_p + model.s * (cycles + 1)
    while n_terms <= MAX_TERMS:
        loads = _loadings(model, n_terms)
        if all(np.sum(G[-model.s:] ** 2) <= TAIL_TOL * np.sum(G ** 2)
               for G in loads):
            return loads
        n_terms *= 2
    raise ValueError("moving-average weights decay too slowly for the oracle")


def exact_covariances(model, noise=None):
    """Exact Omega, Psi, Theta_S and Theta of every season.

    noise is a NoiseSpec; None or kind "strong" means iid Gaussian
    innovations.  The regression of season v uses the model's own
    order p(v), as the Monte Carlo harness does.
    """
    require_causal(model)
    m = noise.m if noise is not None and noise.kind == "weak-product" else 0
    d = model.d
    out = ExactCovariances([], [], [], [])
    for v, G in enumerate(_converged_loadings(model), start=1):
        sigma = model.sigma[v - 1]
        omega = np.einsum("jka,jla->kl", G, G)
        psi = np.kron(omega, sigma)
        rows = cholesky_upper(sigma)
        for j in range(1, min(m, G.shape[0]) + 1):
            excess = 3.0 ** (m + 1 - j) - 1.0
            for a in range(d):
                w = np.kron(G[j - 1][:, a], rows[a])
                psi += excess * np.outer(w, w)
        out.omega.append(omega)
        out.psi.append(psi)
        omega_inv = omega_inverse(omega)
        out.theta_s.append(theta_strong(omega_inv, sigma))
        out.theta.append(theta_sandwich(omega_inv, psi, d))
    return out
