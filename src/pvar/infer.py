"""Wald tests and per-coefficient reports.

The statistic for a linear hypothesis R0 xi = r0 on one season is

    W = N (R0 xi_hat - r0)' [R0 Theta_xi R0']^-1 (R0 xi_hat - r0),

asymptotically chi-squared with rank(R0) degrees of freedom.  The
covariance Theta_xi may come from the independent-innovation formula
or from one of the robust sandwich estimators; the test is otherwise
identical.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DimensionMismatch, SingularRestriction
from .linalg import solve_guarded


def chisq_sf(x, df):
    """Upper tail of the chi-squared distribution."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0, special.gammaincc(df / 2.0, np.where(x > 0, x, 0) / 2.0), 1.0)
    return float(out) if out.ndim == 0 else out


def normal_sf(x):
    """Upper tail of the standard normal distribution."""
    x = np.asarray(x, dtype=float)
    out = special.ndtr(-x)
    return float(out) if out.ndim == 0 else out


@dataclass
class Restriction:
    """Rows R0 and target r0 of the tested linear hypothesis."""

    R0: np.ndarray
    r0: np.ndarray

    def __post_init__(self):
        self.R0 = np.atleast_2d(np.asarray(self.R0, dtype=float))
        self.r0 = np.asarray(self.r0, dtype=float).reshape(-1)
        if self.R0.shape[0] != self.r0.size:
            raise DimensionMismatch("R0 and r0 disagree on the restriction count")
        if np.linalg.matrix_rank(self.R0) < self.R0.shape[0]:
            raise SingularRestriction("restriction rows must be independent")

    @classmethod
    def coordinates(cls, indices, n_coef, values=None):
        """Test xi[i] = value for each listed coordinate."""
        indices = list(indices)
        R0 = np.zeros((len(indices), n_coef))
        for row, i in enumerate(indices):
            R0[row, i] = 1.0
        r0 = np.zeros(len(indices)) if values is None else np.asarray(values, float)
        return cls(R0, r0)


@dataclass
class WaldResult:
    statistic: float
    df: int
    p_value: float
    method: str = ""


def wald(xi_hat, theta_xi, n, restriction, method=""):
    """Wald test of R0 xi = r0 with a given covariance estimate."""
    xi_hat = np.asarray(xi_hat, dtype=float).reshape(-1)
    R0, r0 = restriction.R0, restriction.r0
    if R0.shape[1] != xi_hat.size:
        raise DimensionMismatch("restriction width does not match the parameter count")
    gap = R0 @ xi_hat - r0
    mid = R0 @ theta_xi @ R0.T
    stat = float(n * gap @ solve_guarded(mid, gap, err=SingularRestriction,
                                         what="restriction covariance"))
    df = R0.shape[0]
    return WaldResult(statistic=stat, df=df, p_value=chisq_sf(stat, df), method=method)


@dataclass
class CoefficientRow:
    """One line of a per-coefficient significance report."""

    season: int
    lag: int
    row: int
    col: int
    estimate: float
    std_errors: dict
    p_values: dict
    p_values_wald: dict


def t_report(season, d, p, beta, thetas, n):
    """Coefficient table for one season.

    thetas maps a method name to its d^2 p x d^2 p covariance.  Each
    coefficient gets a standard error sqrt(Theta_ii / N), a two-sided
    normal p-value, and the equivalent single-restriction Wald p-value.
    """
    beta = np.asarray(beta, dtype=float).reshape(-1)
    rows = []
    for idx in range(beta.size):
        lag = idx // (d * d) + 1
        within = idx % (d * d)
        col = within // d + 1
        row = within % d + 1
        ses, pvals, pvals_w = {}, {}, {}
        for name, theta in thetas.items():
            var = float(theta[idx, idx])
            se = (var / n) ** 0.5 if var > 0 else float("nan")
            ses[name] = se
            if se > 0:
                z = abs(beta[idx]) / se
                pvals[name] = 2.0 * normal_sf(z)
                # wald() on the single restriction xi[idx] = 0
                b = beta[idx]
                pvals_w[name] = chisq_sf(n * b * (b / var), 1)
            else:
                pvals[name] = float("nan")
                pvals_w[name] = float("nan")
        rows.append(CoefficientRow(season=season, lag=lag, row=row, col=col,
                                   estimate=float(beta[idx]), std_errors=ses,
                                   p_values=pvals, p_values_wald=pvals_w))
    return rows
