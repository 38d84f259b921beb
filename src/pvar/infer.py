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
import re

import numpy as np

from .errors import DataError, NumericError, require_int
from .linalg import solve_guarded


def chisq_sf(x, df):
    """Upper tail of the chi-squared distribution with integer df >= 1.

    With y = x/2 the tail is erfc(sqrt y) + exp(-y) sum_{i<k} y^(i+1/2) /
    Gamma(i+3/2) for df = 2k+1 (df = 1: erfc alone), and exp(-y) sum_{i<k}
    y^i / i! for df = 2k.  Summed from the terms' logarithms and scaled in
    the exponent, it underflows only where its value does; it is at most 1.
    """
    df = require_int("df", df, 1)
    y = x / 2.0
    if y <= 0:
        return 1.0
    if y == math.inf:
        return 0.0
    tail, first = (math.erfc(math.sqrt(y)), 1.5) if df % 2 else (0.0, 1.0)
    if df == 1:
        return tail
    logs = [(i + first - 1) * math.log(y) - math.lgamma(i + first)
            for i in range(df // 2)]  # term i: y^(i + first - 1) / Gamma(i + first)
    top = max(logs)
    log_sum = top + math.log(sum(math.exp(t - top) for t in logs))
    return min(tail + math.exp(log_sum - y), 1.0)  # a nan sum stays nan


def normal_sf(x):
    """Upper tail of the standard normal distribution."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# compiled on first use; (?(3)...) closes (row,col) with the bracket that opened it
_RESTRICT = (r"phi\[(\d+)(?:,(\d+))?\](?:(\()|\[)(\d+),(\d+)(?(3)\)|\])"
             r"\s*=\s*([-+0-9.eE]+)")


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

    @classmethod
    def parse(cls, texts, s, d, orders):
        """{season: Restriction} of texts, in season order.  A text tests one
        coefficient of season v, "phi[v](row,col)=value" of lag 1 and
        "phi[v,k](row,col)=value" of lag k, or the same with [row,col]; one
        that does not parse, is out of range or repeats its season's
        coefficient is a DataError.  s and d are integers >= 1 (require_int),
        and orders holds each season's order."""
        s, d = require_int("s", s, 1), require_int("d", d, 1)
        if len(orders) != s:
            raise ValueError("need one order per season")
        per_season = {}
        for text in texts:
            m = re.fullmatch(_RESTRICT, text.strip())
            if not m:
                raise DataError(f"cannot parse restriction {text!r}; "
                                "expected phi[season](row,col)=value")
            season, lag, row, col = (int(m[i] or 1) for i in (1, 2, 4, 5))
            try:
                value = float(m[6])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataError(f"bad value in restriction {text!r}")
            if not 1 <= season <= s:
                raise DataError(f"season {season} outside 1..{s} in {text!r}")
            if not (1 <= row <= d and 1 <= col <= d):
                raise DataError(f"indices outside 1..{d} in {text!r}")
            if not 1 <= lag <= orders[season - 1]:
                raise DataError(f"lag {lag} outside 1..{orders[season - 1]} in {text!r}")
            index = ((lag - 1) * d + col - 1) * d + row - 1  # t_report's inverse
            targets = per_season.setdefault(season, {})
            if index in targets:
                raise DataError(f"restriction {text!r} repeats an earlier one's coefficient")
            targets[index] = value
        return {v: cls.coordinates(list(targets), d * d * orders[v - 1],
                                   values=list(targets.values()))
                for v, targets in sorted(per_season.items())}


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
        lag, within = divmod(idx, d * d)  # Restriction.parse's index, inverted
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
