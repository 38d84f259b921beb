"""Small matrix utilities used throughout the package."""

import numpy as np

from .errors import NotPositiveDefinite, SingularDesign

#: Condition-number threshold above which a cross-product matrix is
#: treated as numerically singular.
COND_LIMIT = 1e12


def vec(a):
    """Stack the columns of a 2-d array into one vector."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("vec expects a 2-d array")
    return a.reshape(-1, order="F")


def unvec(v, rows, cols):
    """Inverse of :func:`vec` for a matrix of known shape."""
    v = np.asarray(v, dtype=float)
    if v.size != rows * cols:
        raise ValueError("length does not match the requested shape")
    return v.reshape(rows, cols, order="F")


def solve_spd(a, b, err=NotPositiveDefinite, what="matrix"):
    """Solve a x = b for symmetric positive definite a via Cholesky."""
    a = np.asarray(a, dtype=float)
    try:
        c = np.linalg.cholesky((a + a.T) / 2.0)
    except np.linalg.LinAlgError:
        raise err(f"{what} is not positive definite") from None
    y = np.linalg.solve(c, b)
    return np.linalg.solve(c.T, y)


def inv_spd(a, err=NotPositiveDefinite, what="matrix"):
    a = np.asarray(a, dtype=float)
    return solve_spd(a, np.eye(a.shape[0]), err=err, what=what)


def solve_guarded(a, b, err=SingularDesign, what="matrix"):
    """Solve a x = b, raising ``err`` if a is ill-conditioned."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.zeros((0,) + np.shape(b)[1:])
    if np.linalg.cond(a) > COND_LIMIT:
        raise err(f"{what} is numerically singular")
    return np.linalg.solve(a, b)


def cholesky_upper(sigma):
    """Upper-triangular factor M with M.T @ M == sigma.

    Raises NotPositiveDefinite when sigma is not symmetric positive
    definite.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("covariance must be square")
    if not np.allclose(sigma, sigma.T, rtol=1e-10, atol=1e-12):
        raise NotPositiveDefinite("covariance is not symmetric")
    try:
        lower = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("covariance is not positive definite") from None
    return lower.T
