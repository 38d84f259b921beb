"""Least-squares estimation of periodic vector autoregressions.

Per season v, with N usable cycles, the regression stacks

    Z(v) = [Y[v], Y[s + v], ..., Y[(N-1)s + v]]            (d x N)
    X(v) columns X_n(v) = (Y[ns+v-1]', ..., Y[ns+v-p(v)]')'  (d p(v) x N)

and estimates B(v) = (Phi_1(v), ..., Phi_p(v)) by ordinary least
squares.  Linear constraints beta = R xi + b are handled by feasible
generalized least squares using the unconstrained residual covariance.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import (DimensionMismatch, InsufficientData,
                     RankDeficientConstraint, SingularDesign)
from .linalg import inv_spd, solve_guarded, vec
from .model import PeriodicSeries


@dataclass
class ConstraintSpec:
    """Affine restriction beta(v) = R(v) xi(v) + b(v) for one season."""

    R: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.R = np.atleast_2d(np.asarray(self.R, dtype=float))
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        if self.R.shape[0] != self.b.size:
            raise DimensionMismatch("R and b disagree on the coefficient count")
        if np.linalg.matrix_rank(self.R) < self.R.shape[1]:
            raise RankDeficientConstraint("R must have full column rank")

    @classmethod
    def identity(cls, n_coef):
        return cls(np.eye(n_coef), np.zeros(n_coef))


@dataclass
class FitResult:
    """Per-season estimates from a PVAR regression.

    beta_hat[v-1] = vec(B_hat[v-1]) is the coefficient vector of
    season v; xi_hat holds the free parameters under the constraint
    (equal to beta_hat for an unconstrained fit).
    """

    s: int
    d: int
    orders: list
    n_used: int
    B_hat: list
    residuals: list
    sigma_tilde: list
    X: list
    Z: list
    xi_hat: list
    constraints: list = field(default=None)
    means: np.ndarray = field(default=None)

    @property
    def beta_hat(self):
        return [vec(B) for B in self.B_hat]


def demean_seasonal(series):
    """Subtract per-season sample means; returns (centered, means).

    Means are computed from the main sample only; presample rows are
    centered with the mean of their own season.
    """
    s, d = series.s, series.d
    means = np.empty((s, d))
    data = series.data.copy()
    for v in range(s):
        means[v] = data[v::s].mean(axis=0)
        data[v::s] -= means[v]
    pre = series.presample.copy()
    L = pre.shape[0]
    for i in range(L):
        t = i - L  # time of this presample row is t + 1 <= 0
        v = t % s  # season index (0-based) of time t + 1
        pre[i] -= means[v]
    return PeriodicSeries(s=s, data=data, presample=pre), means


def _normalize_orders(series, orders):
    if np.isscalar(orders):
        orders = [int(orders)] * series.s
    orders = [int(p) for p in orders]
    if len(orders) != series.s:
        raise DimensionMismatch("need one order per season")
    if any(p < 0 for p in orders):
        raise ValueError("orders must be nonnegative")
    return orders


def build_design(series, orders):
    """Regression blocks (Z, X, n_used) for every season.

    If the presample is too shallow for the earliest regressions the
    leading cycles are dropped, keeping a common cycle count across
    seasons.
    """
    orders = _normalize_orders(series, orders)
    s, d, N = series.s, series.d, series.n_cycles
    needed = max((orders[v - 1] - v + 1 for v in range(1, s + 1)), default=0)
    needed = max(needed, 0)
    short = max(needed - series.presample.shape[0], 0)
    n0 = math.ceil(short / s)
    n_used = N - n0
    if n_used < 1:
        raise InsufficientData("not enough cycles for the requested orders")
    Zs, Xs = [], []
    for v in range(1, s + 1):
        p = orders[v - 1]
        Z = np.empty((d, n_used))
        X = np.empty((d * p, n_used))
        for j, n in enumerate(range(n0, N)):
            t = n * s + v
            Z[:, j] = series.at(t)
            for k in range(1, p + 1):
                X[(k - 1) * d:k * d, j] = series.at(t - k)
        Zs.append(Z)
        Xs.append(X)
    return Zs, Xs, n_used


def fit_ols(series, orders, demean=True):
    """Unconstrained per-season least squares."""
    orders = _normalize_orders(series, orders)
    means = None
    if demean:
        series, means = demean_seasonal(series)
    Zs, Xs, n_used = build_design(series, orders)
    B_hat, resid, sig = [], [], []
    for v in range(1, series.s + 1):
        p = orders[v - 1]
        Z, X = Zs[v - 1], Xs[v - 1]
        dof = n_used - series.d * p
        if dof < 1:
            raise InsufficientData(f"season {v}: {n_used} cycles cannot support order {p}")
        if p == 0:
            B = np.zeros((series.d, 0))
            E = Z
        else:
            gram = X @ X.T
            B = solve_guarded(gram, X @ Z.T, err=SingularDesign,
                              what=f"season {v} design").T
            E = Z - B @ X
        B_hat.append(B)
        resid.append(E)
        sig.append(E @ E.T / dof)
    return FitResult(s=series.s, d=series.d, orders=orders, n_used=n_used,
                     B_hat=B_hat, residuals=resid, sigma_tilde=sig,
                     X=Xs, Z=Zs, xi_hat=[vec(B) for B in B_hat], means=means)


def fit_constrained(series, orders, constraints, demean=True):
    """Feasible GLS under per-season affine restrictions.

    constraints is a list of ConstraintSpec (or None for identity),
    one entry per season.  The weighting covariance is the residual
    covariance of the unconstrained fit.
    """
    base = fit_ols(series, orders, demean=demean)
    s, d = base.s, base.d
    if constraints is None:
        constraints = [None] * s
    if len(constraints) != s:
        raise DimensionMismatch("need one constraint entry per season")
    B_hat, resid, sig, xi_hat, specs = [], [], [], [], []
    for v in range(1, s + 1):
        p = base.orders[v - 1]
        n_coef = d * d * p
        spec = constraints[v - 1] or ConstraintSpec.identity(n_coef)
        if spec.R.shape[0] != n_coef:
            raise DimensionMismatch(f"season {v}: R has {spec.R.shape[0]} rows, "
                                    f"expected {n_coef}")
        Z, X = base.Z[v - 1], base.X[v - 1]
        sig_inv = inv_spd(base.sigma_tilde[v - 1], what=f"season {v} residual covariance")
        # W = Z - B0 X with vec(B0) = b, the constraint offset
        B0 = spec.b.reshape(d, d * p, order="F") if p else np.zeros((d, 0))
        W = Z - B0 @ X
        rhs = spec.R.T @ vec(sig_inv @ W @ X.T)
        lhs = spec.R.T @ np.kron(X @ X.T, sig_inv) @ spec.R
        xi = solve_guarded(lhs, rhs, err=SingularDesign,
                           what=f"season {v} constrained normal equations")
        beta = spec.R @ xi + spec.b
        B = beta.reshape(d, d * p, order="F") if p else np.zeros((d, 0))
        E = Z - B @ X
        dof = base.n_used - d * p
        B_hat.append(B)
        resid.append(E)
        sig.append(E @ E.T / dof)
        xi_hat.append(xi)
        specs.append(spec)
    return FitResult(s=s, d=d, orders=base.orders, n_used=base.n_used,
                     B_hat=B_hat, residuals=resid, sigma_tilde=sig,
                     X=base.X, Z=base.Z, xi_hat=xi_hat, constraints=specs,
                     means=base.means)
