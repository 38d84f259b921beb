import numpy as np
import pytest

from pvar.analytic import DiagExampleParams, example_model
from pvar.estimate import build_design
from pvar.lrv import score_series
from pvar.mc import preset
from pvar.model import PvarModel
from pvar.noise import NoiseSpec, simulate
from pvar.oracle import exact_covariances

# exact diagonals of the example at m = 2, season 1 and season 2
THETA_S_M2 = ((0.826, 1.377, 2.675, 4.458), (0.601, 0.301, 0.370, 0.185))
THETA_M2 = ((5.138, 1.377, 2.675, 37.15), (5.004, 0.301, 0.370, 1.580))


def _general_model():
    # three seasons, orders 2, 1, 0, full coefficient and covariance matrices
    return PvarModel(
        s=3, d=2,
        phi=[[np.array([[0.5, 0.2], [-0.3, 0.4]]),
              np.array([[0.1, 0.0], [0.2, -0.2]])],
             [np.array([[-0.6, 0.3], [0.1, 0.5]])],
             []],
        sigma=[np.array([[1.0, 0.3], [0.3, 0.8]]),
               np.array([[2.0, -0.5], [-0.5, 1.0]]),
               np.array([[0.7, 0.1], [0.1, 1.5]])])


@pytest.mark.parametrize("model", [example_model(m=1)[0],
                                   preset("model-II").model,
                                   _general_model()])
def test_strong_noise_theta_is_omega_inverse_kron_sigma(model):
    exact = exact_covariances(model, NoiseSpec("strong"))
    for omega, psi, theta_s, theta, sigma in zip(
            exact.omega, exact.psi, exact.theta_s, exact.theta, model.sigma):
        target = np.kron(np.linalg.inv(omega), sigma) if omega.size else theta
        assert np.allclose(psi, np.kron(omega, sigma), rtol=0, atol=1e-12)
        assert np.allclose(theta, target, rtol=0, atol=1e-12)
        assert np.allclose(theta_s, target, rtol=0, atol=1e-12)
    assert all(o.shape == (model.d * model.p(v), model.d * model.p(v))
               for v, o in enumerate(exact.omega, start=1))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cross_entries_of_independent_channels_keep_strong_values(m):
    model, noise = example_model(m=m)
    exact = exact_covariances(model, noise)
    cross = [1, 2]
    for theta, theta_s in zip(exact.theta, exact.theta_s):
        assert np.allclose(np.diag(theta)[cross], np.diag(theta_s)[cross],
                           rtol=1e-12, atol=0)
        assert np.allclose(theta, np.diag(np.diag(theta)), rtol=0, atol=1e-12)


def test_omega_matches_two_season_variance_recursion():
    # b2 = f2^2 (f1^2 b2 + s1) + s2 is the variance at season two, the
    # regressor of season one; b1 = f1^2 b2 + s1 is the regressor of
    # season two
    p = DiagExampleParams()
    b1, b2 = [], []
    for (f1, f2), (s1, s2) in zip(p.channels(), p.variances()):
        b2.append((f2 * f2 * s1 + s2) / (1.0 - (f1 * f2) ** 2))
        b1.append(f1 * f1 * b2[-1] + s1)
    model, noise = example_model(m=2)
    exact = exact_covariances(model, noise)
    assert np.allclose(exact.omega[0], np.diag(b2), rtol=1e-12, atol=1e-14)
    assert np.allclose(exact.omega[1], np.diag(b1), rtol=1e-12, atol=1e-14)
    assert np.allclose(np.diag(exact.omega[0]), [1.8150, 0.5608], atol=1e-4)
    assert np.allclose(np.diag(exact.omega[1]), [1.6634, 2.7019], atol=1e-4)


def test_example_m2_diagonals():
    model, noise = example_model(m=2)
    exact = exact_covariances(model, noise)
    for v in (0, 1):
        assert np.allclose(np.diag(exact.theta_s[v]), THETA_S_M2[v], atol=1e-3)
        assert np.allclose(np.diag(exact.theta[v]), THETA_M2[v], atol=1e-3)


def test_psi_against_simulated_score_variance_m1():
    # variance of the normalized sum of true-error scores over
    # independent replications; the scores are martingale differences,
    # so it equals Psi at every sample size.  Many short series give a
    # Monte Carlo standard error of about 3% per entry, so 10% is
    # over three standard errors.
    model, spec = example_model(m=1)
    n, reps = 250, 3_200
    acc = [np.zeros(4), np.zeros(4)]
    seeds = range(1000, 1000 + reps)
    for first in range(0, reps, 100):  # one simulate call per 100 seeds
        batch = simulate(model, n, spec, seed=seeds[first:first + 100], burnin=20)
        Zs, Xs, _ = build_design(batch, 1)
        for v in (0, 1):
            eps = Zs[v] - model.phi[v][0] @ Xs[v]
            W = score_series(Xs[v], eps)
            acc[v] += ((W.sum(axis=-2) / np.sqrt(W.shape[-2])) ** 2).sum(axis=0)
    exact = exact_covariances(model, spec)
    for v in (0, 1):
        assert np.allclose(acc[v] / reps, np.diag(exact.psi[v]), rtol=0.10)


def test_general_model_against_one_long_run():
    # sample moments of a long weak-noise run with the true errors:
    # regressor second moments, lag-0 score moments, and vanishing
    # lag-1 score moments
    model = _general_model()
    spec = NoiseSpec("weak-product", m=1)
    ser = simulate(model, 60_000, spec, seed=3, burnin=50)
    Zs, Xs, _ = build_design(ser, [2, 1, 0])
    exact = exact_covariances(model, spec)
    for v in (0, 1):
        X = Xs[v]
        eps = Zs[v] - np.hstack(model.phi[v]) @ X
        W = score_series(X, eps)
        omega = exact.omega[v]
        psi = exact.psi[v]
        scale_o = np.max(np.diag(omega))
        scale_p = np.max(np.diag(psi))
        assert np.allclose(X @ X.T / X.shape[1], omega, rtol=0,
                           atol=0.03 * scale_o)
        assert np.allclose(W.T @ W / W.shape[0], psi, rtol=0,
                           atol=0.08 * scale_p)
        lag1 = W[1:].T @ W[:-1] / W.shape[0]
        assert np.max(np.abs(lag1)) < 0.05 * scale_p
