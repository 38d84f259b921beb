"""Least-squares estimation of periodic vector autoregressions.

Per season v, with N usable cycles, the regression stacks

    Z(v) = [Y[v], Y[s + v], ..., Y[(N-1)s + v]]            (d x N)
    X(v) columns X_n(v) = (Y[ns+v-1]', ..., Y[ns+v-p(v)]')'  (d p(v) x N)

and estimates B(v) = (Phi_1(v), ..., Phi_p(v)) by ordinary least
squares.
"""

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import DimensionMismatch, InsufficientData, SingularDesign
from .linalg import solve_guarded, vec
from .model import PeriodicSeries


@dataclass
class FitResult:
    """Per-season estimates from a PVAR regression.

    beta_hat[v-1] = vec(B_hat[v-1]) is the coefficient vector of
    season v.  In a stack of fits (stack_fits) every per-season array
    has a leading axis with one slice per fit.
    """

    s: int
    d: int
    orders: list
    n_used: int
    B_hat: list
    residuals: list
    sigma_tilde: list
    X: list

    @property
    def beta_hat(self):
        return [vec(B) for B in self.B_hat]


#: The FitResult fields that hold one array per season.
_PER_SEASON = ("B_hat", "residuals", "sigma_tilde", "X")


def stack_fits(fits):
    """One FitResult whose per-season arrays stack those of fits.

    The fits must share s, d, orders and n_used, as fits of series
    drawn from one model at one length do.
    """
    first = fits[0]
    return replace(first, **{
        name: [np.stack([getattr(f, name)[v] for f in fits])
               for v in range(first.s)]
        for name in _PER_SEASON})


def take_fit(fit, i):
    """Fit i of a stack of fits, as a stack of one."""
    return replace(fit, **{
        name: [a[i:i + 1] for a in getattr(fit, name)] for name in _PER_SEASON})


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
    s, N = series.s, series.n_cycles
    needed = max((orders[v - 1] - v + 1 for v in range(1, s + 1)), default=0)
    needed = max(needed, 0)
    short = max(needed - series.presample.shape[0], 0)
    n0 = math.ceil(short / s)
    n_used = N - n0
    if n_used < 1:
        raise InsufficientData("not enough cycles for the requested orders")
    full = np.vstack([series.presample, series.data])
    Zs, Xs = [], []
    for v in range(1, s + 1):
        # row first of full is Y[t] at t = n0 s + v; stepping by s walks
        # the cycles, and k rows earlier is the lag-k regressor
        first = series.presample.shape[0] + n0 * s + v - 1
        lagged = [full[first - k:first - k + (n_used - 1) * s + 1:s]
                  for k in range(orders[v - 1] + 1)]
        Zs.append(lagged[0].T.copy())
        Xs.append(np.hstack(lagged[1:] or [np.empty((n_used, 0))]).T.copy())
    return Zs, Xs, n_used


def fit_ols(series, orders, demean=True):
    """Per-season least squares."""
    orders = _normalize_orders(series, orders)
    if demean:
        series, _ = demean_seasonal(series)
    Zs, Xs, n_used = build_design(series, orders)
    B_hat, resid, sig = [], [], []
    for v in range(1, series.s + 1):
        p = orders[v - 1]
        Z, X = Zs[v - 1], Xs[v - 1]
        dof = n_used - series.d * p
        if dof < 1:
            raise InsufficientData(f"season {v}: {n_used} cycles cannot support order {p}")
        B = solve_guarded(X @ X.T, X @ Z.T, err=SingularDesign,
                          what=f"season {v} design").T
        E = Z - B @ X
        B_hat.append(B)
        resid.append(E)
        sig.append(E @ E.T / dof)
    return FitResult(s=series.s, d=series.d, orders=orders, n_used=n_used,
                     B_hat=B_hat, residuals=resid, sigma_tilde=sig, X=Xs)
