"""Exact asymptotic covariances of the least-squares estimator.

The moments are those of the process the simulator draws (see
noise.py), for any causal PVAR under strong or product noise.  The
innovation of season v is eps_t = M(v)' u_t, where M(v) is the upper
Cholesky factor of Sigma(v) and u_t has independent unit-variance
channels.

Over r = 1 + ceil(max(max_p, m) / s) cycles the values are A x + U u:
(A, B) = cycle_maps of the model taken r cycles at a time, U = B C'
with C its colour_matrix, x the max_p values before the r cycles and
u their unit innovations.  The last max_p rows of A and U give the
state map x -> F x + H u, whose stationary covariance V = F V F' + H H'
is summed by doubling (Smith's iteration: V += F V F', then F = F F,
until V stops changing); the values then have covariance A V A' + U U'.
For season v of the last cycle, the regressors X_t = (Y[t-1]', ...,
Y[t-p(v)]')' and the m innovations before t lie among them: Omega(v) is
a block of that covariance, and in X_t = sum_{j >= 1} G_j(v) u_{t-j}
each G_j(v), j <= m, is a block of U.

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

import numpy as np

from .lrv import omega_inverse, theta_sandwich, theta_strong
from .model import PvarModel, cycle_maps, require_causal
from .noise import colour_matrix


@dataclass
class ExactCovariances:
    """Per-season exact moments; entry [v-1] belongs to season v."""

    omega: list
    psi: list
    theta_s: list
    theta: list


def exact_covariances(model, noise=None):
    """Exact Omega, Psi, Theta_S and Theta of every season.

    noise is a NoiseSpec; None or kind "strong" means iid Gaussian
    innovations.  The regression of season v uses the model's own
    order p(v), as the Monte Carlo harness does.
    """
    require_causal(model)
    m = noise.m if noise is not None and noise.kind == "weak-product" else 0
    s, d, r = model.s, model.d, 1 + -(-max(model.max_p, m) // model.s)
    n = r * s
    A, B = cycle_maps(PvarModel(n, d, model.phi * r, model.sigma * r))
    C = colour_matrix(model.sigma * r)
    U = B @ C.reshape(n * d, n * d).T
    F, H = A[len(A) - A.shape[1]:], U[len(A) - A.shape[1]:]  # the state map
    V, last = H @ H.T, None
    while not np.array_equal(V, last):
        V, last, F = V + F @ V @ F.T, V, F @ F
    cov, U = (A @ V @ A.T + U @ U.T).reshape(n, d, n, d), U.reshape(n, d, n, d)
    out = ExactCovariances([], [], [], [])
    for v, sigma in enumerate(model.sigma, start=1):
        t = n - s + v - 1  # the season's value in the last cycle
        rows, k = t - np.arange(1, model.p(v) + 1), model.p(v) * d
        omega = cov[rows][:, :, rows].reshape(k, k)
        psi = np.kron(omega, sigma)
        for j in range(1, m + 1):  # row a of W is w_ja, M(v) = C[t, :, t]
            W = np.einsum("kia,ab->akib", U[rows, :, t - j], C[t, :, t]).reshape(d, -1)
            psi += (3.0 ** (m + 1 - j) - 1.0) * W.T @ W
        out.omega.append(omega)
        out.psi.append(psi)
        omega_inv = omega_inverse(omega)
        out.theta_s.append(theta_strong(omega_inv, sigma))
        out.theta.append(theta_sandwich(omega_inv, psi, d))
    return out
