import numpy as np
import pytest

from lifted import lifted_covariance
from pvar.analytic import DiagExampleParams, example_model
from pvar.estimate import build_design
from pvar.lrv import score_series
from pvar.mc import preset
from pvar.model import PvarModel, companion_spectral_radius
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


@pytest.mark.parametrize("phi, var", [
    ((1.11, 0.9), (1.0, 0.5)),
    ((0.98 ** (1 / 52),) * 52, tuple(1.0 + 0.5 * np.sin(np.arange(52) * np.pi / 26))),
], ids=["two-seasons-0.999", "weekly-0.98-a-year"])
def test_omega_of_a_persistent_scalar_par1_matches_its_variance_recursion(phi, var):
    # Phi products of 0.999 and 0.98 per cycle: gamma_v = phi_v^2
    # gamma_{v-1} + var_v around the cycle, and season v regresses on
    # gamma_{v-1}; gamma[0] is season s, from one cycle's sum
    cycle = 0.0
    for f, q in zip(phi, var):
        cycle = f * f * cycle + q
    gamma = [cycle / (1.0 - np.prod(np.square(phi)))]
    for f, q in zip(phi, var):
        gamma.append(f * f * gamma[-1] + q)
    model = PvarModel(len(phi), 1, [[[[f]]] for f in phi], [[[q]] for q in var])
    omega = [o[0, 0] for o in exact_covariances(model).omega]
    np.testing.assert_allclose(omega, gamma[:-1], rtol=1e-12, atol=0)


@pytest.mark.parametrize("m", [1, 3, 6])
def test_psi_of_a_scalar_ar1_sums_loadings_more_than_a_cycle_back(m):
    # Y[t-1] = sum_j phi^(j-1) sigma u_{t-j}, so G_j = phi^(j-1) sigma,
    # and at s = 1 each G_j with j >= 2 lies more than a cycle back
    phi, var = 0.6, 2.0
    model = PvarModel(1, 1, [[[[phi]]]], [[[var]]])
    omega = var / (1.0 - phi * phi)
    psi = var * omega + var * var * sum((3.0 ** (m + 1 - j) - 1.0) * phi ** (2 * j - 2)
                                        for j in range(1, m + 1))
    exact = exact_covariances(model, NoiseSpec("weak-product", m=m))
    np.testing.assert_allclose([exact.omega[0][0, 0], exact.psi[0][0, 0]], [omega, psi],
                               rtol=1e-13, atol=0)


def _random_causal_models(count, seed):
    rng = np.random.default_rng(seed)
    models = []
    while len(models) < count:
        s, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        phi = [[rng.standard_normal((d, d)) / np.sqrt(d * max(p, 1)) for _ in range(p)]
               for p in rng.integers(0, 6, size=s)]
        sigma = [a @ a.T + 0.5 * np.eye(d) for a in rng.standard_normal((s, d, d))]
        model = PvarModel(s, d, phi, sigma)
        if companion_spectral_radius(model) < 0.95:
            models.append(model)
    return models


def test_omega_is_the_stationary_covariance_of_the_season_stacked_var():
    # the stacked vector of a cycle lists its values newest first, so in
    # a stack of cycles the value k before season v is block s - v + k
    models = _random_causal_models(50, seed=35)
    assert any(m.max_p > m.s for m in models)
    assert any(m.max_p > 0 and min(map(len, m.phi)) == 0 for m in models)
    for model in models:
        cov = lifted_covariance(model, 1 + -(-model.max_p // model.s))
        n, d = len(cov) // model.d, model.d
        blocks = cov.reshape(n, d, n, d)
        for v, omega in enumerate(exact_covariances(model).omega, start=1):
            at = model.s - v + np.arange(1, model.p(v) + 1)
            want = blocks[at][:, :, at].reshape(omega.shape)
            np.testing.assert_allclose(omega, want, rtol=1e-10,
                                       atol=1e-10 * np.abs(want).max(initial=0.0))


def _lag_blocks(first, second):
    zero = np.zeros((4, 4))
    return np.block([[np.array(first), zero], [zero, np.array(second)]])


# Psi and Theta of _general_model() at m = 2, seasons 1 and 2, as an
# earlier summation of the moving-average weights gave them.  Season 1
# regresses on season 3, whose value is its own innovation, and on
# season 2, so its matrices are block diagonal in the lag.
GENERAL_PSI_M2 = (_lag_blocks(
    [[6.3, 1.89, 0.9, 0.27],
     [1.89, 1.064, 0.27, 0.152],
     [0.9, 0.27, 1.6142857142857, 0.48428571428571],
     [0.27, 0.152, 0.48428571428571, 9.6491428571429]],
    [[6.4353989690574, 1.9306196907172, -1.4908256025939, -0.44724768077817],
     [1.9306196907172, 2.3083191752459, -0.44724768077817, -0.48266048207512],
     [-1.4908256025939, -0.44724768077817, 1.6191580714976, 0.48574742144929],
     [-0.44724768077817, -0.48266048207512, 0.48574742144929, 2.3603264571981]]),
    [[19.340993693667, -4.8352484234167, 5.2156204114375, -1.3039051028594],
     [-4.8352484234167, 2.4322468468334, -1.3039051028594, 0.87306020571874],
     [5.2156204114375, -1.3039051028594, 4.1460395168023, -1.0365098792006],
     [-1.3039051028594, 0.87306020571874, -1.0365098792006, 6.7567697584011]])
GENERAL_THETA_M2 = (_lag_blocks(
    [[12.870879120879, 3.8612637362637, -0.096153846153846, -0.028846153846154],
     [3.8612637362637, 2.2604395604396, -0.028846153846154, -0.62307692307692],
     [-0.096153846153846, -0.028846153846154, 0.67307692307692, 0.20192307692308],
     [-0.028846153846154, -0.62307692307692, 0.20192307692308, 4.3615384615385]],
    [[1.0919689681744, 0.32759069045231, 0.097172882685352, 0.029151864805606],
     [0.32759069045231, 0.44379186649437, 0.029151864805606, 0.27659231499307],
     [0.097172882685352, 0.029151864805606, 0.7930762798435, 0.23792288395305],
     [0.029151864805606, 0.27659231499307, 0.23792288395305, 1.4003900806496]]),
    [[12.271277405529, -3.0678193513823, -1.0648136196483, 0.26620340491208],
     [-3.0678193513823, 1.8752262963036, 0.26620340491208, -1.3772960649729],
     [-1.0648136196483, 0.26620340491208, 2.0765772833948, -0.51914432084869],
     [0.26620340491208, -1.3772960649729, -0.51914432084869, 4.852005017221]])


def test_general_model_psi_and_theta_at_m2_are_pinned():
    # the product-noise loadings G_1 and G_2 of season 1 reach across a
    # cycle, into season 3 and season 2
    exact = exact_covariances(_general_model(), NoiseSpec("weak-product", m=2))
    for got, want in ((exact.psi, GENERAL_PSI_M2), (exact.theta, GENERAL_THETA_M2)):
        for v in (0, 1):
            np.testing.assert_allclose(got[v], want[v], rtol=1e-12, atol=1e-15)
        assert got[2].shape == (0, 0)


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
