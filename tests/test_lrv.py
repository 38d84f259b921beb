import numpy as np
import pytest

from pvar.errors import LagOutOfRange
from pvar.estimate import fit_ols
from pvar.lrv import (KernelSpec, covariances, default_bandwidth,
                      default_r_max, kernel_weight, lambda_hat, omega_hat,
                      psi_hac, psi_spectral, score_series,
                      select_ar_order_aic, theta_sandwich, theta_strong,
                      theta_xi)
from pvar.model import PvarModel
from pvar.noise import NoiseSpec, simulate


def example_model():
    return PvarModel(
        s=2, d=2,
        phi=[[np.diag([0.3, -0.6])], [np.diag([-0.7, 0.15])]],
        sigma=[np.diag([1.5, 2.5]), np.diag([1.0, 0.5])],
    )


def fitted_scores(n_cycles=2000, seed=0, noise=None):
    ser = simulate(example_model(), n_cycles, noise, seed=seed)
    fit = fit_ols(ser, 1, demean=False)
    X = fit.X[0]
    return X, score_series(X, fit.residuals[0]), fit


# kernels ------------------------------------------------------------------

def test_kernel_values():
    for kind in ("rect", "bartlett", "parzen", "qs"):
        assert kernel_weight(KernelSpec(kind, 0.1), 0.0) == pytest.approx(1.0)
    bart = KernelSpec("bartlett", 0.1)
    assert kernel_weight(bart, 0.5) == pytest.approx(0.5)
    assert kernel_weight(bart, 1.5) == 0.0
    rect = KernelSpec("rect", 0.1)
    assert kernel_weight(rect, 0.999) == 1.0
    assert kernel_weight(rect, 1.001) == 0.0
    parzen = KernelSpec("parzen", 0.1)
    # both branches agree at the joint
    assert kernel_weight(parzen, 0.5) == pytest.approx(0.25)
    assert kernel_weight(parzen, 0.25) == pytest.approx(1 - 6 * 0.0625 + 6 * 0.015625)
    qs = KernelSpec("qs", 0.1)
    # far tail: bounded by the 25/(12 pi^2 x^2) envelope
    assert abs(kernel_weight(qs, 15.0)) < 1.05 * 25 / (12 * np.pi ** 2 * 15.0 ** 2)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("gauss", 0.1)
    with pytest.raises(ValueError):
        KernelSpec("bartlett", 0.0)


def test_bandwidth_rules():
    assert default_bandwidth(1000, "andrews") == pytest.approx(1.0 / 8.0)
    assert default_bandwidth(1000, "log") == pytest.approx(1.0 / np.log(1000))
    assert default_bandwidth(1000, "llsw") == pytest.approx(1.0 / 42.0)
    assert default_bandwidth(1000, "full") == pytest.approx(1e-3)
    with pytest.raises(ValueError):
        default_bandwidth(1000, "cv")


# scores and autocovariances ------------------------------------------------

def test_score_ordering_matches_kron():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    E = np.array([[5.0, 6.0], [7.0, 8.0]])
    W = score_series(X, E)
    assert W.shape == (2, 4)
    assert np.array_equal(W[0], np.kron(X[:, 0], E[:, 0]))
    assert np.array_equal(W[1], np.kron(X[:, 1], E[:, 1]))


def test_score_zero_residuals():
    X = np.random.default_rng(0).standard_normal((2, 10))
    assert np.array_equal(score_series(X, np.zeros((2, 10))), np.zeros((10, 4)))


def test_lambda_hat_single_spike():
    W = np.zeros((5, 3))
    w = np.array([1.0, 2.0, 3.0])
    W[0] = w
    assert np.allclose(lambda_hat(W, 0), np.outer(w, w) / 5)


def test_lambda_transpose_exact():
    _, W, _ = fitted_scores(200)
    assert np.array_equal(lambda_hat(W, -3), lambda_hat(W, 3).T)
    with pytest.raises(LagOutOfRange):
        lambda_hat(W, 200)


def test_full_lag_sum_vanishes_for_ols_scores():
    _, W, _ = fitted_scores(300)
    N = W.shape[0]
    total = sum(lambda_hat(W, h) for h in range(-N + 1, N))
    lam0 = np.linalg.norm(lambda_hat(W, 0))
    assert np.linalg.norm(total) <= 1e-8 * lam0


def test_omega_hat_constant_column():
    c = np.array([1.0, -2.0])
    X = np.tile(c[:, None], (1, 7))
    assert np.allclose(omega_hat(X), np.outer(c, c))


# HAC and spectral -----------------------------------------------------------

def test_psi_hac_truncation_zero_gives_lambda0():
    _, W, _ = fitted_scores(200)
    spec = KernelSpec("bartlett", 2.0)  # T_N = floor(1/2) = 0
    assert np.array_equal(psi_hac(W, spec), lambda_hat(W, 0))


def test_psi_spectral_order_zero_gives_lambda0():
    _, W, _ = fitted_scores(200)
    assert np.array_equal(psi_spectral(W, 0), lambda_hat(W, 0))


def test_psi_hac_symmetric_and_bartlett_psd():
    _, W, _ = fitted_scores(500, seed=3, noise=NoiseSpec("weak-product", m=1))
    psi = psi_hac(W, KernelSpec("bartlett", 1.0 / 10.0))
    assert np.array_equal(psi, psi.T)
    eig = np.linalg.eigvalsh(psi)
    assert eig.min() >= -1e-10 * np.trace(psi)


def test_aic_white_noise_picks_zero():
    hits = 0
    for seed in range(10):
        W = np.random.default_rng(seed).standard_normal((10_000, 3))
        if select_ar_order_aic(W, default_r_max(10_000)) == 0:
            hits += 1
    assert hits >= 9


def test_aic_detects_var1():
    hits = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        W = np.zeros((10_000, 2))
        for t in range(1, 10_000):
            W[t] = 0.8 * W[t - 1] + rng.standard_normal(2)
        if select_ar_order_aic(W, default_r_max(10_000)) >= 1:
            hits += 1
    assert hits >= 10 * 95 // 100


def test_aic_rmax_zero():
    W = np.random.default_rng(0).standard_normal((100, 2))
    assert select_ar_order_aic(W, 0) == 0


def test_strong_noise_lrv_matches_kronecker_form():
    # with independent innovations Psi = Omega (x) Sigma
    X, W, fit = fitted_scores(100_000, seed=9)
    target = np.kron(omega_hat(X), fit.sigma_tilde[0])
    sp = psi_spectral(W)
    rel = np.linalg.norm(sp - target) / np.linalg.norm(target)
    assert rel < 0.05
    hac = psi_hac(W, KernelSpec("bartlett", default_bandwidth(100_000)))
    rel = np.linalg.norm(hac - target) / np.linalg.norm(target)
    assert rel < 0.05


# sandwich assembly ----------------------------------------------------------

def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def test_theta_strong_identity_omega():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    theta = theta_strong(np.eye(3), sigma)
    assert np.allclose(theta, np.kron(np.eye(3), sigma))


def test_sandwich_reduces_to_strong():
    rng = np.random.default_rng(4)
    omega = random_spd(rng, 2)
    sigma = random_spd(rng, 2)
    psi = np.kron(omega, sigma)
    assert np.allclose(theta_sandwich(omega, psi, 2), theta_strong(omega, sigma),
                       atol=1e-12)


def test_covariances_builder_matches_parts():
    ser = simulate(example_model(), 1500, NoiseSpec("weak-product", m=1), seed=11)
    fit = fit_ols(ser, 1, demean=False)
    spec = KernelSpec("parzen", 0.2)
    got = covariances(fit, ["strong", "sp", "hac"], spec, ar_order=1)
    assert list(got) == [1, 2]
    for v in (1, 2):
        X = fit.X[v - 1]
        omega = omega_hat(X)
        W = score_series(X, fit.residuals[v - 1])
        assert list(got[v]) == ["strong", "sp", "hac"]
        assert np.array_equal(got[v]["strong"],
                              theta_strong(omega, fit.sigma_tilde[v - 1]))
        assert np.array_equal(got[v]["sp"],
                              theta_sandwich(omega, psi_spectral(W, 1), 2))
        assert np.array_equal(got[v]["hac"],
                              theta_sandwich(omega, psi_hac(W, spec), 2))
    only2 = covariances(fit, ["hac", "strong"], spec, ar_order=1, seasons=[2])
    assert list(only2) == [2]
    for m in ("hac", "strong"):
        assert np.array_equal(only2[2][m], got[2][m])
    aic = covariances(fit, ["sp"], spec)
    W1 = score_series(fit.X[0], fit.residuals[0])
    assert np.array_equal(aic[1]["sp"],
                          theta_sandwich(omega_hat(fit.X[0]), psi_spectral(W1), 2))
    with pytest.raises(ValueError, match="unknown covariance method"):
        covariances(fit, ["white"], spec)


def test_theta_xi_identity_reduction():
    rng = np.random.default_rng(5)
    omega = random_spd(rng, 2)
    sigma = random_spd(rng, 2)
    psi = random_spd(rng, 4)
    full = theta_sandwich(omega, psi, 2)
    via_xi = theta_xi(np.eye(4), omega, sigma, psi, 2)
    assert np.allclose(via_xi, full, atol=1e-10)
    # strong form reduces to Omega^-1 (x) Sigma
    strong = theta_xi(np.eye(4), omega, sigma, np.kron(omega, sigma), 2)
    assert np.allclose(strong, np.kron(np.linalg.inv(omega), sigma), atol=1e-10)


def test_theta_xi_coordinate_selector():
    rng = np.random.default_rng(6)
    omega = random_spd(rng, 2)
    sigma = random_spd(rng, 2)
    psi = random_spd(rng, 4)
    R = np.zeros((4, 1))
    R[2, 0] = 1.0
    got = theta_xi(R, omega, sigma, psi, 2)
    # dense assembly oracle
    sig_inv = np.linalg.inv(sigma)
    bread = np.linalg.inv(R.T @ np.kron(omega, sig_inv) @ R)
    wing = np.kron(np.eye(2), sig_inv) @ R
    expect = bread @ wing.T @ psi @ wing @ bread
    assert np.allclose(got, expect, atol=1e-12)


def test_theta_xi_zero_psi():
    rng = np.random.default_rng(7)
    omega = random_spd(rng, 2)
    sigma = random_spd(rng, 2)
    got = theta_xi(np.eye(4), omega, sigma, np.zeros((4, 4)), 2)
    assert np.allclose(got, 0.0)


def test_s1_reduction_matches_plain_var():
    # on s=1 data every per-season quantity must equal a plain VAR version
    model = PvarModel(s=1, d=2, phi=[[np.array([[0.5, 0.1], [0.0, 0.3]])]],
                      sigma=[np.eye(2)])
    ser = simulate(model, 400, seed=8)
    fit = fit_ols(ser, 1, demean=False)
    X, Z = fit.X[0], fit.Z[0]
    # plain VAR computation from scratch on the same design
    B = Z @ X.T @ np.linalg.inv(X @ X.T)
    E = Z - B @ X
    assert np.allclose(B, fit.B_hat[0], atol=1e-12)
    W = score_series(X, E)
    W2 = np.stack([np.kron(X[:, n], E[:, n]) for n in range(X.shape[1])])
    assert np.allclose(W, W2, atol=1e-12)
    omega = X @ X.T / X.shape[1]
    psi = psi_hac(W2, KernelSpec("bartlett", 0.25))
    theta = np.kron(np.linalg.inv(omega), np.eye(2)) @ psi @ \
        np.kron(np.linalg.inv(omega), np.eye(2))
    assert np.allclose(theta, theta_sandwich(omega_hat(X), psi_hac(W, KernelSpec("bartlett", 0.25)), 2),
                       atol=1e-12)
