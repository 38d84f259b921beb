"""Score autocovariances, long-run variance, and sandwich covariances.

For each season the score process is W_n = X_n (x) e_n (Kronecker
product of the regressor stack and the residual).  The coefficient
covariance is the sandwich

    Theta = (Omega^-1 (x) I_d) Psi (Omega^-1 (x) I_d),

where Psi is the long-run variance of W_n, estimated either by a
kernel-weighted sum of autocovariances (HAC) or through a vector
autoregression fitted to the scores (spectral method).  Under
independent innovations Psi = Omega (x) Sigma and Theta reduces to
Omega^-1 (x) Sigma.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import (DimensionMismatch, LagOutOfRange, NearSingularUnit,
                     RankDeficientConstraint, SingularDesign)
from .linalg import inv_spd, solve_guarded

KERNEL_KINDS = ("rect", "bartlett", "parzen", "qs")

#: Effective support of the quadratic-spectral window; its weights past
#: this point are below 3e-4, so the truncated sum loses little.
QS_SUPPORT = 10.0


@dataclass
class KernelSpec:
    kind: str = "bartlett"
    bandwidth: float = 0.1

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel {self.kind!r}")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    @property
    def support(self):
        return QS_SUPPORT if self.kind == "qs" else 1.0

    @property
    def truncation(self):
        return int(math.floor(self.support / self.bandwidth))


def kernel_weight(spec, x):
    """Weight f(x) of the window; f(0) = 1 for every kind."""
    ax = abs(float(x))
    if spec.kind == "rect":
        return 1.0 if ax <= 1.0 else 0.0
    if spec.kind == "bartlett":
        return max(1.0 - ax, 0.0)
    if spec.kind == "parzen":
        if ax <= 0.5:
            return 1.0 - 6.0 * ax**2 + 6.0 * ax**3
        if ax <= 1.0:
            return 2.0 * (1.0 - ax) ** 3
        return 0.0
    # quadratic spectral
    if ax < 1e-12:
        return 1.0
    z = 6.0 * math.pi * ax / 5.0
    return 25.0 / (12.0 * math.pi**2 * ax**2) * (math.sin(z) / z - math.cos(z))


BANDWIDTH_RULES = {
    "andrews": lambda n: 1.0 / (math.floor(0.75 * n ** (1 / 3)) + 1),
    "log": lambda n: 1.0 / math.log(n),
    "nw-2/9": lambda n: 1.0 / (math.floor(4.0 * (n / 100.0) ** (2 / 9)) + 1),
    "nw-1/4": lambda n: 1.0 / (math.floor(n ** 0.25) + 1),
    "llsw": lambda n: 1.0 / (math.floor(1.3 * n ** 0.5) + 1),
    "full": lambda n: 1.0 / n,
}


def default_bandwidth(n, rule="andrews"):
    try:
        return BANDWIDTH_RULES[rule](n)
    except KeyError:
        raise ValueError(f"unknown bandwidth rule {rule!r}") from None


def omega_hat(X):
    """Mean of X_n X_n' over the sample; X has one column per cycle."""
    X = np.asarray(X, dtype=float)
    return X @ X.T / X.shape[1]


def score_series(X, residuals):
    """Scores W_n = X_n (x) e_n, one row per cycle, shape (N, d^2 p)."""
    X = np.asarray(X, dtype=float)
    E = np.asarray(residuals, dtype=float)
    if X.shape[1] != E.shape[1]:
        raise DimensionMismatch("regressors and residuals disagree on N")
    # row n of the result is kron(X[:, n], E[:, n])
    return (X.T[:, :, None] * E.T[:, None, :]).reshape(X.shape[1], -1)


def lambda_hat(W, h):
    """Autocovariance (1/N) sum_n W_n W_{n-h}'; negative h transposes."""
    W = np.asarray(W, dtype=float)
    N = W.shape[0]
    if abs(h) >= N:
        raise LagOutOfRange(f"|h| = {abs(h)} must be below N = {N}")
    if h < 0:
        return lambda_hat(W, -h).T
    return W[h:].T @ W[:N - h] / N


def psi_hac(W, spec):
    """Kernel-weighted sum of score autocovariances."""
    W = np.asarray(W, dtype=float)
    N = W.shape[0]
    T = min(spec.truncation, N - 1)
    psi = lambda_hat(W, 0) * kernel_weight(spec, 0.0)
    for h in range(1, T + 1):
        w = kernel_weight(spec, h * spec.bandwidth)
        if w == 0.0:
            continue
        lam = lambda_hat(W, h)
        psi = psi + w * (lam + lam.T)
    return psi


def _lag_design(W, r, start):
    """Stacked lag regressors [W_{n-1}; ...; W_{n-r}] for n = start..N-1."""
    N = W.shape[0]
    cols = [W[start - k:N - k] for k in range(1, r + 1)]
    return np.hstack(cols) if cols else np.zeros((N - start, 0))


def _var_fit(W, r, start):
    """Regress W_n on r lags over n = start..N-1.

    Returns (coef, resid_cov) where coef stacks the lag matrices
    horizontally, (q, q*r).
    """
    Y = W[start:]
    Xl = _lag_design(W, r, start)
    n_eff = Y.shape[0]
    if r == 0:
        resid = Y
        coef = np.zeros((W.shape[1], 0))
    else:
        gram = Xl.T @ Xl
        coef = solve_guarded(gram, Xl.T @ Y, err=SingularDesign,
                             what="score lag regression").T
        resid = Y - Xl @ coef.T
    return coef, resid.T @ resid / n_eff


def select_ar_order_aic(W, r_max):
    """AIC order choice for the score autoregression.

    All candidate orders are fitted on the common sample n = r_max..N-1
    so their likelihoods are comparable.
    """
    W = np.asarray(W, dtype=float)
    N, q = W.shape
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    if not r_max < N / 2:
        raise ValueError("r_max must be below N/2")
    n_eff = N - r_max
    best_r, best_aic = 0, np.inf
    for r in range(r_max + 1):
        _, cov = _var_fit(W, r, r_max)
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            continue
        aic = logdet + 2.0 * r * q * q / n_eff
        if aic < best_aic:
            best_r, best_aic = r, aic
    return best_r


def default_r_max(n):
    return int(math.floor(n ** (1 / 3)))


def psi_spectral(W, r="aic", r_max=None):
    """Long-run variance through an autoregression on the scores.

    With fitted lag matrices A_1..A_r and residual covariance S,
    Psi = P^-1 S P^-T where P = I - sum_k A_k.  r may be a fixed
    order or "aic".
    """
    W = np.asarray(W, dtype=float)
    N, q = W.shape
    if r == "aic":
        if r_max is None:
            r_max = default_r_max(N)
        r = select_ar_order_aic(W, r_max)
    r = int(r)
    if N - r < q * r + 1:
        raise SingularDesign("too few score observations for the requested order")
    coef, cov = _var_fit(W, r, r)
    P = np.eye(q)
    for k in range(r):
        P = P - coef[:, k * q:(k + 1) * q]
    if np.linalg.cond(P) > 1e10:
        raise NearSingularUnit("score autoregression is nearly noninvertible at z=1")
    Pinv = np.linalg.inv(P)
    return Pinv @ cov @ Pinv.T


def theta_strong(omega, sigma):
    """Omega^-1 (x) Sigma, the covariance under independent innovations."""
    omega_inv = solve_guarded(omega, np.eye(omega.shape[0]), err=SingularDesign,
                              what="regressor second-moment matrix")
    return np.kron(omega_inv, sigma)


def theta_sandwich(omega, psi, d):
    """(Omega^-1 (x) I_d) Psi (Omega^-1 (x) I_d)."""
    omega_inv = solve_guarded(omega, np.eye(omega.shape[0]), err=SingularDesign,
                              what="regressor second-moment matrix")
    bread = np.kron(omega_inv, np.eye(d))
    return bread @ psi @ bread


def covariances(fit, methods, hac, ar_order="aic", seasons=None):
    """Theta estimates {season: {method: Theta}}; seasons defaults to all.

    "strong" is Omega^-1 (x) Sigma; "sp" and "hac" are sandwiches whose
    Psi is psi_spectral(W, ar_order) or psi_hac(W, hac) of the scores W.
    """
    out = {}
    for v in seasons or range(1, fit.s + 1):
        X = fit.X[v - 1]
        omega = omega_hat(X)
        W = None
        out[v] = {}
        for method in methods:
            if method == "strong":
                out[v][method] = theta_strong(omega, fit.sigma_tilde[v - 1])
                continue
            if W is None:
                W = score_series(X, fit.residuals[v - 1])
            if method == "sp":
                psi = psi_spectral(W, ar_order)
            elif method == "hac":
                psi = psi_hac(W, hac)
            else:
                raise ValueError(f"unknown covariance method {method!r}")
            out[v][method] = theta_sandwich(omega, psi, fit.d)
    return out


def theta_xi(R, omega, sigma, psi, d):
    """Sandwich covariance of the free parameters under beta = R xi + b."""
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if np.linalg.matrix_rank(R) < R.shape[1]:
        raise RankDeficientConstraint("R must have full column rank")
    sig_inv = inv_spd(sigma, what="residual covariance")
    bread = solve_guarded(R.T @ np.kron(omega, sig_inv) @ R, np.eye(R.shape[1]),
                          err=SingularDesign, what="constrained information matrix")
    wing = np.kron(np.eye(omega.shape[0]), sig_inv) @ R
    return bread @ (wing.T @ psi @ wing) @ bread
