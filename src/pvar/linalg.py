"""Small matrix utilities used throughout the package."""

import numpy as np

from .errors import NumericError

#: 2-norm condition number above which a matrix is numerically singular.
#: Of a symmetric matrix it is max |eig| / min |eig|, so no SVD is needed.
COND_LIMIT = 1e12

_TRI_BLOCK = 16  # tri_inv's largest block handed to np.linalg.inv


def mT(a):
    """Transpose of each matrix of a stack (or of one matrix)."""
    return a.swapaxes(-1, -2)


def vec(a):
    """Stack the columns of a matrix into one vector.

    For a stack of matrices, one vector per matrix.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise ValueError("vec expects a matrix or a stack of matrices")
    return mT(a).reshape(a.shape[:-2] + (-1,))


def require_conditioned(a, what="matrix", inv_factor=None):
    """Raise NumericError unless min |eig| > max |eig| / COND_LIMIT for each
    symmetric matrix of a stack; a zero or non-finite matrix raises.  Given
    inv_factor = L^-1 for Cholesky factors L L' = a, the stack passes with
    no eigenvalues if every trace(a) ||L^-1||_F^2, a bound on cond_2(a), is
    at most COND_LIMIT / 2."""
    if np.isfinite(a).all():
        if inv_factor is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # inf declines
                bound = np.trace(a, axis1=-2, axis2=-1) * (inv_factor ** 2).sum((-2, -1))
            if (bound <= COND_LIMIT / 2).all():
                return
        lam = np.abs(np.linalg.eigvalsh(a))
        if (lam.min(axis=-1) > lam.max(axis=-1) / COND_LIMIT).all():
            return
    raise NumericError(f"{what} is numerically singular")


def tri_inv(lower):
    """Inverse of each lower-triangular matrix of a stack, by 2 x 2 blocks:
    inv([[A, 0], [B, C]]) = [[A^-1, 0], [-C^-1 B A^-1, C^-1]], down to
    blocks of _TRI_BLOCK rows, where np.linalg.inv raises LinAlgError on
    an exactly singular one."""
    n = lower.shape[-1]
    if n <= _TRI_BLOCK:
        return np.linalg.inv(lower)
    h = n // 2
    out = np.zeros(lower.shape)
    out[..., :h, :h] = a_inv = tri_inv(lower[..., :h, :h])
    out[..., h:, h:] = c_inv = tri_inv(lower[..., h:, h:])
    out[..., h:, :h] = -(c_inv @ lower[..., h:, :h] @ a_inv)
    return out


def solve_guarded(a, b, what="matrix"):
    """Solve a x = b for symmetric a, raising NumericError if a is ill-conditioned.

    a may be a stack of matrices, solved slice by slice as np.linalg.solve
    does; NumericError is raised if any slice is ill-conditioned.
    """
    a = np.asarray(a, dtype=float)
    if a.size:
        require_conditioned(a, what)
    return np.linalg.solve(a, b)


def cholesky_upper(sigma):
    """Upper-triangular factor M with M.T @ M == sigma.

    For a stack of matrices, one factor per matrix.  Raises
    NumericError when a matrix is not symmetric positive definite.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim < 2 or sigma.shape[-2] != sigma.shape[-1]:
        raise ValueError("covariance must be square")
    # np.allclose's test written out, a quarter of its cost on a 2 x 2 matrix
    if not (np.abs(sigma - mT(sigma)) <= 1e-12 + 1e-10 * np.abs(mT(sigma))).all():
        raise NumericError("covariance is not symmetric")
    try:
        lower = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise NumericError("covariance is not positive definite") from None
    return mT(lower)
