"""Least-squares estimation of periodic vector autoregressions.

Per season v, with N usable cycles, the regression stacks

    Z(v) = [Y[v], Y[s + v], ..., Y[(N-1)s + v]]            (d x N)
    X(v) columns X_n(v) = (Y[ns+v-1]', ..., Y[ns+v-p(v)]')'  (d p(v) x N)

and estimates B(v) = (Phi_1(v), ..., Phi_p(v)) by ordinary least
squares.
"""

import math

import numpy as np

from .errors import DataError, require_int
from .linalg import mT, solve_guarded, vec


class PeriodicSeries:
    """Observed series of N full cycles plus an optional presample.

    data has shape (N*s, d); row t-1 holds Y[t] for t = 1..N*s.
    presample has shape (L, d) in chronological order, so its last row
    is Y[0], the one before is Y[-1], and so on.  A stack of R series
    has data (R, N*s, d) and presample (R, L, d).
    """

    def __init__(self, s, data, presample=None):
        self.s = require_int("s", s, 1)
        self.data = np.atleast_2d(np.asarray(data, dtype=float))
        if presample is None or np.size(presample) == 0:
            presample = np.zeros(self.data.shape[:-2] + (0, self.d))
        self.presample = np.atleast_2d(np.asarray(presample, dtype=float))
        if self.data.shape[-2] % s:
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


class FitResult:
    """Per-season estimates from a PVAR regression.

    beta_hat[v-1] = vec(B_hat[v-1]) is the coefficient vector of
    season v.  The fit of a stack of series has a leading axis on every
    per-season array, one slice per series.
    """

    def __init__(self, s, d, orders, n_used, B_hat, residuals, sigma_tilde, X):
        self.s, self.d, self.orders, self.n_used = s, d, orders, n_used
        self.B_hat, self.residuals = B_hat, residuals
        self.sigma_tilde, self.X = sigma_tilde, X

    @property
    def beta_hat(self):
        return [vec(B) for B in self.B_hat]


def demean_seasonal(series):
    """Subtract per-season sample means; returns (centered, means).

    Means are computed from the main sample only; presample rows are
    centered with the mean of their own season.
    """
    s, data = series.s, series.data.copy()
    means = np.empty(data.shape[:-2] + (s, series.d))
    for v in range(s):
        means[..., v, :] = data[..., v::s, :].mean(axis=-2)
        data[..., v::s, :] -= means[..., v, None, :]
    L = series.presample.shape[-2]
    # presample row i holds time i - L + 1, of 0-based season (i - L) % s
    pre = series.presample - means[..., (np.arange(L) - L) % s, :]
    return PeriodicSeries(s=s, data=data, presample=pre), means


def _normalize_orders(series, orders):
    orders = [orders] * series.s if np.isscalar(orders) else orders
    orders = [require_int("order", p, 0) for p in orders]
    if len(orders) != series.s:
        raise ValueError("need one order per season")
    return orders


def build_design(series, orders):
    """Regression blocks (Z, X, n_used) for every season.

    If the presample is too shallow for the earliest regressions the
    leading cycles are dropped, keeping a common cycle count across
    seasons.  A stack of series gives stacked blocks.
    """
    orders = _normalize_orders(series, orders)
    s, d, N, L = series.s, series.d, series.n_cycles, series.presample.shape[-2]
    needed = max((orders[v - 1] - v + 1 for v in range(1, s + 1)), default=0)
    n0 = math.ceil(max(needed - L, 0) / s)
    n_used = N - n0
    if n_used < 1:
        raise DataError("not enough cycles for the requested orders")
    full = np.concatenate([series.presample, series.data], axis=-2)
    Zs, Xs = [], []
    for v, p in enumerate(orders, start=1):
        # row first of full is Y[t] at t = n0 s + v; stepping by s walks
        # the cycles, and k rows earlier is the lag-k regressor
        first = L + n0 * s + v - 1
        lagged = [full[..., first - k:first - k + (n_used - 1) * s + 1:s, :]
                  for k in range(p + 1)]
        Zs.append(mT(lagged[0]).copy())
        X = np.empty(full.shape[:-2] + (d * p, n_used))  # C order, as fit_ols rounds
        for k in range(1, p + 1):  # each block written once
            X[..., (k - 1) * d:k * d, :] = mT(lagged[k])
        Xs.append(X)
    return Zs, Xs, n_used


def fit_ols(series, orders, demean=True):
    """Per-season least squares.

    orders is one order for all seasons or one per season, each an
    integer of at least 0 (errors.require_int).  A stack of series is
    fitted with one guarded solve per season, and each slice of the
    result equals the fit of its series alone.
    """
    orders = _normalize_orders(series, orders)
    if demean:
        series, _ = demean_seasonal(series)
    Zs, Xs, n_used = build_design(series, orders)
    B_hat, resid, sig = [], [], []
    for v, (p, Z, X) in enumerate(zip(orders, Zs, Xs), start=1):
        dof = n_used - series.d * p
        if dof < 1:
            raise DataError(f"season {v}: {n_used} cycles cannot support order {p}")
        B = mT(solve_guarded(X @ mT(X), X @ mT(Z), what=f"season {v} design"))
        E = Z - B @ X
        B_hat.append(B)
        resid.append(E)
        sig.append(E @ mT(E) / dof)
    return FitResult(s=series.s, d=series.d, orders=orders, n_used=n_used,
                     B_hat=B_hat, residuals=resid, sigma_tilde=sig, X=Xs)
