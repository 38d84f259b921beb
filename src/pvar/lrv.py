"""Score autocovariances, long-run variance, and sandwich covariances.

For each season the score process is W_n = X_n (x) e_n (Kronecker
product of the regressor stack and the residual).  The coefficient
covariance is the sandwich

    Theta = (Omega^-1 (x) I_d) Psi (Omega^-1 (x) I_d),

where Psi is the long-run variance of W_n, estimated either by a
kernel-weighted sum of autocovariances (HAC) or through a vector
autoregression fitted to the scores (spectral method).  Both read the
scores only through their autocovariance sums S_h.  Under
independent innovations Psi = Omega (x) Sigma and Theta reduces to
Omega^-1 (x) Sigma.

Every estimator takes one season's arrays or a stack of them with a
leading replication axis, and gives per slice what the single-season
call gives: the Monte Carlo harness passes the fit of a whole chunk
of replications at once.
"""

import math

import numpy as np

from .errors import DataError, NumericError, require_int, require_positive
from .linalg import mT, require_conditioned, solve_guarded, tri_inv

KERNEL_KINDS = ("bartlett", "rect", "parzen", "qs")

#: Each covariance method -> the name of its Wald test in mc reports.
COV_METHODS = {"strong": "standard", "sp": "modified-sp", "hac": "modified-hac"}

#: Effective support of the quadratic-spectral window; its weights past
#: this point are below 3e-4, so the truncated sum loses little.
QS_SUPPORT = 10.0


class KernelSpec:
    """A HAC window of KERNEL_KINDS at a bandwidth > 0 (require_positive)."""
    def __init__(self, kind="bartlett", bandwidth=0.1):
        if kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel {kind!r}")
        self.kind, self.bandwidth = kind, require_positive("bandwidth", bandwidth)

    @property
    def truncation(self):
        # support / bandwidth overflows to inf for a subnormal bandwidth
        support = QS_SUPPORT if self.kind == "qs" else 1.0
        return int(math.floor(min(support / self.bandwidth, np.finfo(float).max)))


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
    # floor(0.75 n^(1/3)) = floor(cbrt(27 n)) // 4, exact where 64 n is a cube
    "andrews": lambda n: 1.0 / (default_r_max(27 * n) // 4 + 1),
    "log": lambda n: 1.0 / math.log(n),
    "nw-2/9": lambda n: 1.0 / (math.floor(4.0 * (n / 100.0) ** (2 / 9)) + 1),
    "nw-1/4": lambda n: 1.0 / (math.floor(n ** 0.25) + 1),
    "llsw": lambda n: 1.0 / (math.floor(1.3 * n ** 0.5) + 1),
    "full": lambda n: 1.0 / n,
}


def default_bandwidth(n, rule=None):
    n = require_int("n", n, 1)
    try:
        return BANDWIDTH_RULES["andrews" if rule is None else rule](n)
    except KeyError:
        raise ValueError(f"unknown bandwidth rule {rule!r}") from None
    except ZeroDivisionError:  # 1 / log(1)
        raise ValueError(f"bandwidth rule {rule!r} is undefined at {n} cycles") from None


def _kron(a, b):
    """Kronecker product of each pair of matrices of two stacks.

    Entry by entry the same products as np.kron, so one pair of
    matrices gives np.kron(a, b) bit for bit.
    """
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (m * p, n * q))


def omega_hat(X):
    """Mean of X_n X_n' over the sample; X has one column per cycle."""
    X = np.asarray(X, dtype=float)
    return X @ mT(X) / X.shape[-1]


def score_series(X, residuals):
    """Scores W_n = X_n (x) e_n, one row per cycle, shape (N, d^2 p)."""
    X = np.asarray(X, dtype=float)
    E = np.asarray(residuals, dtype=float)
    if X.shape[-1] != E.shape[-1]:
        raise ValueError("regressors and residuals disagree on N")
    # row n of the result is kron(X[:, n], E[:, n])
    prod = mT(X)[..., :, :, None] * mT(E)[..., :, None, :]
    return prod.reshape(prod.shape[:-2] + (-1,))


def autocovariances(W, H):
    """S_h = sum_{n>=h} W_n W_{n-h}' for h = 0..H, shape (..., H+1, q, q);
    each S_h is computed on its own, so it does not depend on H."""
    W = np.asarray(W, dtype=float)
    N, q = W.shape[-2:]
    S = np.empty(W.shape[:-2] + (H + 1, q, q))
    for h in range(H + 1):
        S[..., h, :, :] = mT(W[..., h:, :]) @ W[..., :N - h, :]
    return S


def _sums(W, H, S):
    """autocovariances(W, H) if S is None, else S if it reaches lag H."""
    if S is not None and S.shape[-3] <= H:
        raise ValueError(f"S reaches lag {S.shape[-3] - 1}, short of lag {H}")
    return autocovariances(W, H) if S is None else S


def psi_hac(W, spec, S=None):
    """Kernel-weighted sum of the score autocovariances.

    S is autocovariances(W, H) for some H at or past the truncation lag,
    or None to compute it here (_sums).  A kernel that weights every
    sample lag 1 is a NumericError for scores with columns: its Psi is
    (sum W)(sum W)' / N, which the normal equations make zero.
    """
    W = np.asarray(W, dtype=float)
    N, q = W.shape[-2:]
    T = min(spec.truncation, N - 1)
    w = np.array([kernel_weight(spec, h * spec.bandwidth) for h in range(T + 1)])
    if q and T == N - 1 and (w == 1.0).all():
        raise NumericError(f"the {spec.kind} kernel at bandwidth {spec.bandwidth:g} weights "
                           f"every score lag up to {N - 1} by 1, so the HAC Psi is zero")
    S = _sums(W, T, S)
    lags = np.flatnonzero(w[1:]) + 1
    lam = S[..., lags, :, :] / N
    # S_0 / N f(0), then w_h (Lambda_h + Lambda_h') of each lag with a
    # nonzero weight; cumsum adds them left to right, as a loop would
    terms = np.concatenate([S[..., :1, :, :] / N * w[0],
                            w[lags, None, None] * (lam + mT(lam))], axis=-3)
    return np.cumsum(terms, axis=-3)[..., -1, :, :]


def _lag_design(W, r, start):
    """Stacked lag regressors [W_{n-1}; ...; W_{n-r}] for n = start..N-1."""
    N = W.shape[-2]
    cols = [W[..., start - k:N - k, :] for k in range(1, r + 1)]
    if not cols:
        return np.zeros(W.shape[:-2] + (N - start, 0))
    return np.concatenate(cols, axis=-1)


def _lag_moments(W, r, S):
    """Y'Y, Y'X and X'X of the r-lag regression on n = r..N-1, from S.

    With W zero outside 0..N-1, X'X summed over every n is the block
    Toeplitz matrix of S_0..S_{r-1}; the rows n < r and n >= N are taken
    off as two r-row lag designs of the zero-padded ends.  Y'X and Y'Y
    are S_1..S_r and S_0 less the rows n < r: least squares, not
    Yule-Walker.  Only the first and the last r rows of W are read.
    """
    stack, (N, q) = W.shape[:-2], W.shape[-2:]
    head = W[..., :r, :]
    zeros = np.zeros(stack + (r, q))
    U = _lag_design(np.concatenate([zeros, head], axis=-2), r, r)
    V = _lag_design(np.concatenate([W[..., N - r:, :], zeros], axis=-2), r, r)
    blocks = np.concatenate([mT(S[..., r - 1:0:-1, :, :]), S[..., :r, :, :]],
                            axis=-3)
    lag = np.arange(r)
    toeplitz = blocks[..., r - 1 + lag[None, :] - lag[:, None], :, :]
    xx = (np.swapaxes(toeplitz, -3, -2).reshape(stack + (q * r, q * r))
          - mT(U) @ U - mT(V) @ V)
    yx = (np.swapaxes(S[..., 1:r + 1, :, :], -3, -2).reshape(stack + (q, q * r))
          - mT(head) @ U)
    return S[..., 0, :, :] - mT(head) @ head, yx, xx


def select_ar_order_aic(W, r_max, S=None):
    """AIC order choice for the score autoregression.

    All candidate orders are scored on the common sample n = r_max..N-1
    so their likelihoods are comparable.  The order-r lag design is the
    first q*r columns of the r_max design X, so one factorisation scores
    every order: with G = X'X = L L' and C = L^-1 X'Y, the order-r
    residual cross-product is Y'Y - sum_{k<r} C_k'C_k, where C_k is the
    k-th q-row block of C.  Every order's Gram is a leading principal
    submatrix of G and so no worse conditioned, hence one guard on G
    raises exactly when some order's regression would be singular.  L^-1
    comes by blocks (linalg.tri_inv) and gives both C and the guard's
    Cholesky bound; eigenvalues are taken only where the bound declines.
    Orders whose residual covariance is not positive definite, or whose
    fit of the common sample is exact (q*r >= N - r_max), are skipped;
    ties go to the lowest order.

    No design is built: _lag_moments takes the moments from the sums S
    to lag r_max (_sums), an integer (errors.require_int) below N / 2.

    W may be a stack of score series; the result is then an int array
    of one order per series, and the search raises if any series'
    regression is singular.
    """
    W = np.asarray(W, dtype=float)
    stack, (N, q) = W.shape[:-2], W.shape[-2:]
    if not require_int("r_max", r_max, 0) < N / 2:
        raise ValueError("r_max must be below N/2")
    n_eff = N - r_max
    yy, cross, gram = _lag_moments(W, r_max, _sums(W, r_max, S))
    resid = np.empty(stack + (r_max + 1, q, q))
    resid[..., 0, :, :] = yy
    if r_max and q:
        what = "score lag regression"
        if not np.isfinite(gram).all():  # cholesky need not raise on nan
            raise NumericError(f"{what} is numerically singular")
        try:
            inv_factor = tri_inv(np.linalg.cholesky(gram))
        except np.linalg.LinAlgError:
            raise NumericError(f"{what} is numerically singular") from None
        require_conditioned(gram, what, inv_factor)
        C = (inv_factor @ mT(cross)).reshape(stack + (r_max, q, q))
        resid[..., 1:, :, :] = (resid[..., :1, :, :]
                                - np.cumsum(mT(C) @ C, axis=-3))
    orders = np.arange(r_max + 1)
    sign, logdet = np.linalg.slogdet(resid / n_eff)
    aic = logdet + 2.0 * orders * q * q / n_eff
    best = np.argmin(np.where((sign > 0) & (q * orders < n_eff), aic, np.inf),
                     axis=-1)
    return int(best) if best.ndim == 0 else best


def default_r_max(n):
    """The integer cube root of n: the k with k ** 3 <= n < (k + 1) ** 3."""
    k = round(n ** (1 / 3))  # 1000 ** (1 / 3) is 9.999999999999998
    return k if k ** 3 <= n else k - 1


def spectral_lags(N, q, r="aic"):
    """The last score lag psi_spectral reads, at most N - 1: the order r, or
    the AIC search bound min(default_r_max(N), N // (q + 1)), past which
    the lag Gram has more columns than rows."""
    return min(min(default_r_max(N), N // (q + 1)) if r == "aic"
               else require_int("r", r, 0), N - 1)


def psi_spectral(W, r="aic", S=None):
    """Long-run variance through an autoregression on the scores.

    With fitted lag matrices A_1..A_r and residual covariance Sigma,
    Psi = P^-1 Sigma P^-T where P = I - sum_k A_k.  r may be a fixed
    order or "aic", searched up to spectral_lags(N, q).  Scores with no
    columns (a season of order 0) give the 0x0 Psi.  For a stack of
    score series AIC picks an order per series, and those that share an
    order > 0 are fitted together (order 0 is S_0 / N), all from the sums
    S of W to lag spectral_lags(N, q, r) (_sums).
    """
    W = np.asarray(W, dtype=float)
    N, q = W.shape[-2:]
    if q == 0:
        return np.zeros(W.shape[:-2] + (0, 0))
    if r == "aic" and not default_r_max(N) < N / 2:  # N <= 2
        raise DataError(f"{N} score observations are too few for the AIC order search")
    H = spectral_lags(N, q, r)
    S = _sums(W, H, S)
    flat, flat_S = W.reshape((-1, N, q)), S.reshape((-1,) + S.shape[-3:])
    orders = np.reshape(select_ar_order_aic(W, H, S) if r == "aic"
                        else np.full(W.shape[:-2], r), -1)
    psi = flat_S[:, 0] / N  # what an order-0 fit gives, bit for bit
    # not np.unique, whose first call imports numpy.ma: ~20 ms per CLI call
    for order in sorted(set(orders.tolist()) - {0}):
        at = orders == order
        # _lag_moments reads only the first and the last `order` rows
        ends = np.concatenate([flat[at, :order], flat[at, N - order:]], axis=1)
        psi[at] = _psi_of_order(ends, N, order, flat_S[at])
    return psi.reshape(W.shape[:-2] + (q, q))


def _psi_of_order(ends, N, r, S):
    """psi_spectral of a stack of score series of length N at one fixed
    order r >= 1, given their first r and last r rows (ends), from the
    moments of the regression on n = r..N-1 (_lag_moments): lag matrices
    C = Y'X (X'X)^-1 and Sigma = (Y'Y - C X'Y) / (N - r)."""
    q = ends.shape[-1]
    if N - r < q * r + 1:
        raise DataError("too few score observations for the requested order")
    yy, yx, xx = _lag_moments(ends, r, S)
    coef = mT(solve_guarded(xx, mT(yx), what="score lag regression"))
    cov = (yy - coef @ mT(yx)) / (N - r)
    P = np.eye(q)
    for k in range(r):
        P = P - coef[..., k * q:(k + 1) * q]
    if (np.linalg.cond(P) > 1e10).any():
        raise NumericError("score autoregression is nearly noninvertible at z=1")
    Pinv = np.linalg.inv(P)
    return Pinv @ cov @ mT(Pinv)


def omega_inverse(omega):
    """Omega^-1 by a guarded solve; NumericError if Omega is near singular."""
    return solve_guarded(omega, np.eye(omega.shape[-1]),
                         what="regressor second-moment matrix")


def theta_strong(omega_inv, sigma):
    """Omega^-1 (x) Sigma, the covariance under independent innovations."""
    return _kron(omega_inv, sigma)


def theta_sandwich(omega_inv, psi, d):
    """(Omega^-1 (x) I_d) Psi (Omega^-1 (x) I_d), d an integer >= 1."""
    bread = _kron(omega_inv, np.eye(require_int("d", d, 1)))
    return bread @ psi @ bread


def covariances(fit, methods, hac, ar_order="aic", seasons=None):
    """Theta estimates {season: {method: Theta}}; seasons defaults to all.

    methods are keys of COV_METHODS, ar_order is "aic" or an integer of
    at least 0 and seasons distinct integers in 1..s (None: all), each
    checked by errors.require_int and all before any work is done.
    "strong" is Omega^-1 (x) Sigma; "sp" and "hac" are sandwiches whose
    Psi is psi_spectral(W, ar_order) or psi_hac(W, hac) of the scores W.
    Each season inverts its Omega and sums the autocovariances of W once,
    to the deepest lag that a requested estimator reads: spectral_lags
    for "sp", the truncation lag for "hac".  The fit of a stack of series
    (estimate.fit_ols) gives stacked estimates, one slice per series.
    """
    for method in methods:
        if method not in COV_METHODS:
            raise ValueError(f"unknown covariance method {method!r}")
    seasons = (range(1, fit.s + 1) if seasons is None
               else [require_int("season", v, 1) for v in seasons])
    if not seasons or len(set(seasons)) < len(seasons) or max(seasons) > fit.s:
        raise ValueError(
            f"seasons must be nonempty, distinct and in 1..{fit.s}, got {seasons}")
    if ar_order != "aic":
        require_int("ar_order", ar_order, 0)
    N = fit.n_used
    out = {}
    for v in seasons:
        X = fit.X[v - 1]
        omega_inv = omega_inverse(omega_hat(X))
        if set(methods) - {"strong"}:
            W = score_series(X, fit.residuals[v - 1])
            lags = {"sp": spectral_lags(N, W.shape[-1], ar_order), "hac": hac.truncation}
            S = autocovariances(W, min(max(lags.get(m, 0) for m in methods), N - 1))
        out[v] = {}
        for method in methods:
            if method == "strong":
                out[v][method] = theta_strong(omega_inv, fit.sigma_tilde[v - 1])
            else:
                psi = (psi_spectral(W, ar_order, S) if method == "sp"
                       else psi_hac(W, hac, S))
                out[v][method] = theta_sandwich(omega_inv, psi, fit.d)
    return out
