"""Wald tests and per-coefficient reports.

The statistic for a linear hypothesis R0 beta = r0 on the
least-squares coefficients of one season is

    W = N (R0 beta_hat - r0)' [R0 Theta R0']^-1 (R0 beta_hat - r0),

asymptotically chi-squared with rank(R0) degrees of freedom.  The
covariance Theta may come from the independent-innovation formula
or from one of the robust sandwich estimators; the test is otherwise
identical.
"""

import math

import numpy as np

from .errors import NumericError, require_int
from .linalg import solve_guarded


def chisq_sf(x, df):
    """Upper tail of the chi-squared distribution with integer df.

    With y = x/2 the tail has finite forms whose terms are all
    positive: exp(-y) sum_{i<k} y^i / i! for df = 2k, and
    erfc(sqrt y) + exp(-y) sum_{i<k} y^(i+1/2) / Gamma(i+3/2) for
    df = 2k+1.  The sum is scaled by exp(-y) through its logarithm, so
    the tail underflows only where its value does; where the sum
    overflows, it is summed again from its terms' logarithms.  Rounding
    past 1 is clamped to 1.
    """
    if not (float(df).is_integer() and df >= 1):
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    if x <= 0:
        return 1.0
    if x == math.inf:
        return 0.0
    y = x / 2.0
    if df % 2:
        tail, term, first = math.erfc(math.sqrt(y)), 2.0 * math.sqrt(y / math.pi), 1.5
    else:
        tail, term, first = 0.0, 1.0, 1.0
    total = 0.0
    for i in range(int(df) // 2):
        total += term
        term *= y / (i + first)
    if total == math.inf:  # term i is y^(i + first - 1) / Gamma(i + first)
        logs = [(i + first - 1) * math.log(y) - math.lgamma(i + first)
                for i in range(int(df) // 2)]
        top = max(logs)
        log_total = top + math.log(sum(math.exp(t - top) for t in logs))
        return min(1.0, tail + math.exp(log_total - y))
    return min(1.0, tail + math.exp(math.log(total) - y)) if total > 0 else tail


def normal_sf(x):
    """Upper tail of the standard normal distribution."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


class Restriction:
    """Rows R0 and target r0 of the tested linear hypothesis."""

    def __init__(self, R0, r0):
        self.R0 = np.atleast_2d(np.asarray(R0, dtype=float))
        self.r0 = np.asarray(r0, dtype=float).reshape(-1)
        if self.R0.shape[0] != self.r0.size:
            raise ValueError("R0 and r0 disagree on the restriction count")
        if np.linalg.matrix_rank(self.R0) < self.R0.shape[0]:
            raise NumericError("restriction rows must be independent")

    @classmethod
    def coordinates(cls, indices, n_coef, values=None):
        """Test beta[i] = value for each listed integer i in 0..n_coef - 1."""
        n_coef = require_int("n_coef", n_coef, 0)
        indices = [require_int("index", i, 0) for i in indices]
        R0 = np.zeros((len(indices), n_coef))
        for row, i in enumerate(indices):
            if i >= n_coef:
                raise ValueError(f"index must be below n_coef {n_coef}, got {i}")
            R0[row, i] = 1.0
        r0 = np.zeros(len(indices)) if values is None else np.asarray(values, float)
        return cls(R0, r0)


class WaldResult:
    def __init__(self, statistic, df, p_value):
        # statistic and p_value are floats, or arrays of a stacked test's shape
        self.statistic, self.df, self.p_value = statistic, df, p_value


def wald(beta_hat, theta, n, restriction, where=""):
    """Wald test of R0 beta = r0 with a given covariance estimate.

    theta may be a stack of covariances with any leading axes, and
    beta_hat one coefficient vector per slice; statistic and p_value are
    then arrays of the stack's shape, and NumericError is raised if any
    slice's restriction covariance is singular or has a variance <= 0.
    where prefixes its message, such as "season 1, hac: ".  n = N >= 1.
    """
    n = require_int("n", n, 1)
    theta = np.asarray(theta, dtype=float)
    beta = np.asarray(beta_hat, dtype=float).reshape(theta.shape[:-2] + (-1,))
    R0, r0 = restriction.R0, restriction.r0
    if R0.shape[1] != beta.shape[-1]:
        raise ValueError("restriction width does not match the parameter count")
    # column-vector products, so that one slice multiplies as R0 @ beta does
    gap = (R0 @ beta[..., None])[..., 0] - r0
    mid = R0 @ theta @ R0.T
    sol = solve_guarded(mid, gap[..., None], what=f"{where}restriction covariance")
    var = np.diagonal(mid, axis1=-2, axis2=-1)
    if not (var > 0).all():
        raise NumericError(f"{where}a restriction's variance is {var.min():.6g}, "
                           "not positive")
    stat = ((n * gap)[..., None, :] @ sol)[..., 0, 0]
    df = R0.shape[0]
    if stat.ndim == 0:
        return WaldResult(float(stat), df, chisq_sf(float(stat), df))
    p_value = np.array([chisq_sf(x, df) for x in stat.ravel().tolist()])
    return WaldResult(statistic=stat, df=df, p_value=p_value.reshape(stat.shape))


def t_report(d, beta, thetas, n, where=""):
    """Per-coefficient records of one season, as pvar fit's JSON lists them.

    thetas maps a method name to its covariance of beta.  Each coefficient,
    in vec order, gets a dict {lag, row, col, estimate, std_errors,
    p_values}, with per method a standard error sqrt(Theta_ii / N) and a
    two-sided normal p-value, the single-restriction Wald p-value.  where
    prefixes the message of a variance <= 0, such as "season 1: ".  d and
    n = N are integers >= 1, checked first (errors.require_int).
    """
    d, n = require_int("d", d, 1), require_int("n", n, 1)
    beta = np.asarray(beta, dtype=float).reshape(-1)
    records = []
    for idx in range(beta.size):
        lag, within = divmod(idx, d * d)
        col, row = divmod(within, d)
        ses, pvals = {}, {}
        for name, theta in thetas.items():
            var = float(theta[idx, idx])
            if not var > 0:
                raise NumericError(f"{where}the {name} variance of the lag {lag + 1} "
                                   f"coefficient ({row + 1},{col + 1}) is {var:.6g}, "
                                   "not positive")
            ses[name] = se = (var / n) ** 0.5
            pvals[name] = 2.0 * normal_sf(abs(beta[idx]) / se)
        records.append({"lag": lag + 1, "row": row + 1, "col": col + 1,
                        "estimate": float(beta[idx]), "std_errors": ses,
                        "p_values": pvals})
    return records
