"""Reference: a PVAR rewritten as a season-stacked VAR on cycle vectors.

The package decides causality from the cycle state map
(pvar.model.companion_spectral_radius); the tests check that map and
the simulator against this second, independent representation.
"""

import math

import numpy as np


def phi_or_zero(model, season, lag):
    """Phi_lag(season), with zero for lags beyond p(season)."""
    lags = model.phi[season - 1]
    return lags[lag - 1] if lag <= len(lags) else np.zeros((model.d, model.d))


def lifted_var(model):
    """(phi0, [phi1, ..., phi_pstar]) of the season-stacked VAR.

    The stacked vector collects one cycle in reverse season order,
    (Y[n*s + s], ..., Y[n*s + 1]).  phi0 is block unit-upper-triangular
    and p* = ceil(max_p / s).
    """
    s, d = model.s, model.d
    ds = s * d
    p_star = math.ceil(model.max_p / s)
    phi0 = np.eye(ds)
    for r in range(s):
        for c in range(r + 1, s):
            phi0[r * d:(r + 1) * d, c * d:(c + 1) * d] = -phi_or_zero(model, s - r, c - r)
    phis = []
    for k in range(1, p_star + 1):
        blk = np.zeros((ds, ds))
        for r in range(s):
            for c in range(s):
                blk[r * d:(r + 1) * d, c * d:(c + 1) * d] = \
                    phi_or_zero(model, s - r, k * s - r + c)
        phis.append(blk)
    return phi0, phis


def lifted_companion_radius(model):
    """Spectral radius of the companion matrix of the stacked VAR."""
    phi0, phis = lifted_var(model)
    if not phis:
        return 0.0
    ds, p_star = phi0.shape[0], len(phis)
    comp = np.eye(ds * p_star, k=-ds)
    comp[:ds] = np.hstack([np.linalg.solve(phi0, blk) for blk in phis])
    return float(np.max(np.abs(np.linalg.eigvals(comp))))


def lifted_covariance(model, cycles):
    """Stationary covariance of `cycles` consecutive stacked vectors,
    newest first, with cycles >= p*.

    It solves the discrete Lyapunov equation of the stacked VAR's
    companion matrix, written with `cycles` lags (the ones past p* are
    zero), by one Kronecker-product solve.
    """
    phi0, phis = lifted_var(model)
    ds = phi0.shape[0]
    n = ds * cycles
    comp = np.eye(n, k=-ds)
    comp[:ds] = np.hstack([np.linalg.solve(phi0, blk) for blk in phis]
                          + [np.zeros((ds, ds))] * (cycles - len(phis)))
    # the stacked noise, season s on top, through phi0^-1
    noise = np.zeros((n, n))
    for r in range(model.s):
        noise[r * model.d:(r + 1) * model.d, r * model.d:(r + 1) * model.d] = \
            model.sigma[model.s - 1 - r]
    inv0 = np.linalg.inv(phi0)
    noise[:ds, :ds] = inv0 @ noise[:ds, :ds] @ inv0.T
    vec = np.linalg.solve(np.eye(n * n) - np.kron(comp, comp), noise.ravel())
    return vec.reshape(n, n)
