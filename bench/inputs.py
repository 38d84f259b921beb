"""Inputs of the benchmark and the reference computations its checks use.

Everything here is numpy only and independent of ``pvar``: the CLI
workloads' series are drawn by the benchmark's own product-noise
recursion, and the checks compare the program's answers with the
benchmark's own least squares and periodic Lyapunov recursion.
"""

import math

import numpy as np

BURNIN_CYCLES = 200

# cli-bivariate: a five-season (trading-day) bivariate PVAR(1) with
# small cross effects, in the shape of a pair of daily return series.
BIVARIATE_PHI = (
    ((0.12, 0.05), (-0.04, 0.20)),
    ((-0.10, 0.08), (0.03, 0.15)),
    ((0.25, -0.06), (0.07, -0.12)),
    ((0.05, 0.10), (-0.08, 0.30)),
    ((-0.18, 0.02), (0.06, 0.09)),
)
BIVARIATE_SIGMA = (
    ((1.00, 0.30), (0.30, 0.80)),
    ((1.20, 0.25), (0.25, 0.90)),
    ((0.90, 0.20), (0.20, 1.10)),
    ((1.10, 0.35), (0.35, 1.00)),
    ((1.30, 0.40), (0.40, 1.20)),
)


def _wide_model():
    """Four-season trivariate PVAR(2); every season's lag block has
    absolute row sums below 0.8, so the recursion is a contraction."""
    rng = np.random.default_rng(20240403)
    phi, sigma = [], []
    for _ in range(4):
        blocks = rng.uniform(-1.0, 1.0, size=(3, 6))
        blocks *= 0.75 / np.abs(blocks).sum(axis=1, keepdims=True)
        phi.append((blocks[:, :3], blocks[:, 3:]))
        a = rng.uniform(-0.5, 0.5, size=(3, 3))
        sigma.append(np.eye(3) + a @ a.T)
    return phi, sigma


WIDE_PHI, WIDE_SIGMA = _wide_model()


def product_noise(n, d, m, rng):
    """n rows of d independent channels, each a product of m + 1
    consecutive standard normals: uncorrelated in time, not independent."""
    eta = rng.standard_normal((n + m, d))
    out = eta[:n].copy()
    for j in range(1, m + 1):
        out *= eta[j:n + j]
    return out


def simulate(phi, sigma, n_cycles, m, seed):
    """Draw n_cycles cycles of a PVAR under product noise.

    phi[v][k] is lag k+1 of season v+1 (both 0-based here); sigma[v] is
    the season's noise covariance.  Returns an (n_cycles * s, d) array.
    """
    s, d = len(phi), len(sigma[0])
    p = max(len(lags) for lags in phi)
    rng = np.random.default_rng(seed)
    total = (BURNIN_CYCLES + n_cycles) * s
    factors = [np.linalg.cholesky(np.asarray(sg, float)).T for sg in sigma]
    eps = product_noise(total, d, m, rng)
    mats = [[np.asarray(a, float) for a in lags] for lags in phi]
    y = np.zeros((total + p, d))
    for t in range(total):
        v = t % s
        acc = eps[t] @ factors[v]
        for k, a in enumerate(mats[v], start=1):
            acc = acc + a @ y[p + t - k]
        y[p + t] = acc
    return y[p + BURNIN_CYCLES * s:].copy()


def write_csv(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"y{j + 1}" for j in range(data.shape[1])) + "\n")
        for row in data:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def ols_reference(data, s, order):
    """Per-season least squares by numpy.linalg.lstsq.

    The series is centred by season means over all cycles; cycles whose
    lags reach before the first row are dropped, the same number for
    every season.  Returns {(season, lag, row, col): (estimate,
    strong standard error)} with 1-based keys.
    """
    y = np.array(data, dtype=float)
    n_cycles, d = y.shape[0] // s, y.shape[1]
    for v in range(s):
        y[v::s] -= y[v::s].mean(axis=0)
    n0 = math.ceil(max(0, max(order - v for v in range(s))) / s)
    n = n_cycles - n0
    out = {}
    for v in range(s):
        t = np.arange(n0, n_cycles) * s + v             # 0-based rows
        Z = y[t]                                        # (n, d)
        X = np.hstack([y[t - k] for k in range(1, order + 1)])
        coef, *_ = np.linalg.lstsq(X, Z, rcond=None)    # (d p, d) = B'
        resid = Z - X @ coef
        sigma = resid.T @ resid / (n - d * order)
        omega_inv = np.linalg.inv(X.T @ X / n)
        for k in range(order):
            for col in range(d):
                c = k * d + col
                for row in range(d):
                    se = math.sqrt(omega_inv[c, c] * sigma[row, row] / n)
                    out[(v + 1, k + 1, row + 1, col + 1)] = (coef[c, row], se)
    return out


def lyapunov_theta_strong(phi, sigma, tol=1e-14, max_cycles=100000):
    """Omega(v)^-1 (x) Sigma(v) of a PVAR(1) from its periodic Lyapunov
    recursion Gamma(v) = Phi(v) Gamma(v-1) Phi(v)' + Sigma(v).

    phi[v] is the lag-1 matrix of season v+1.  Omega(v), the second
    moment of the regressor Y[t-1] of season v, is Gamma(v-1).
    """
    s = len(phi)
    phi = [np.asarray(a, float) for a in phi]
    sigma = [np.asarray(a, float) for a in sigma]
    gamma = [np.zeros_like(sigma[0]) for _ in range(s)]
    for _ in range(max_cycles):
        prev = [g.copy() for g in gamma]
        for v in range(s):
            gamma[v] = phi[v] @ gamma[v - 1] @ phi[v].T + sigma[v]
        if max(np.max(np.abs(g - h)) for g, h in zip(gamma, prev)) < tol:
            break
    else:
        raise ValueError("Lyapunov recursion did not converge")
    return [np.kron(np.linalg.inv(gamma[v - 1]), sigma[v]) for v in range(s)]
