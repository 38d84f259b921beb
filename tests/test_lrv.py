import numpy as np
import pytest

import pvar.lrv
from pvar.errors import NumericError
from pvar.estimate import build_design, fit_ols
from pvar.lrv import (KernelSpec, autocovariances, covariances,
                      default_bandwidth, default_r_max, kernel_weight, omega_hat,
                      omega_inverse, psi_hac, psi_spectral, score_series,
                      select_ar_order_aic, spectral_lags, theta_sandwich,
                      theta_strong)
from pvar.linalg import mT, require_conditioned, solve_guarded
from pvar.mc import preset
from pvar.model import PvarModel
from pvar.noise import NoiseSpec, simulate


def example_model():
    return PvarModel(
        s=2, d=2,
        phi=[[np.diag([0.3, -0.6])], [np.diag([-0.7, 0.15])]],
        sigma=[np.diag([1.5, 2.5]), np.diag([1.0, 0.5])],
    )


def lambda_hat(W, h):
    """Reference autocovariance (1/N) sum_n W_n W_{n-h}' at lag 0 <= h < N."""
    return mT(W[..., h:, :]) @ W[..., :W.shape[-2] - h, :] / W.shape[-2]


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
    # zero from x = 1 on, a lag that psi_hac never sums
    assert [kernel_weight(parzen, x) for x in (1.0, 1.5, -7.0)] == [0.0] * 3
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


@pytest.mark.parametrize("n,lags", [(64, 3), (512, 6), (1728, 9), (4096, 12)])
def test_andrews_rule_is_exact_where_its_root_is_an_integer(n, lags):
    # 0.75 n^(1/3) = 3, 6, 9, 12: the float root rounded these down by one
    assert default_bandwidth(n, "andrews") == 1.0 / (lags + 1)


def test_andrews_rule_agrees_with_its_integer_definition():
    # k = floor(0.75 n^(1/3)) is the k with 64 k^3 <= 27 n < 64 (k + 1)^3
    for n in [*range(1, 30_000), *(64 * k ** 3 + j for k in range(1, 400)
                                   for j in (-1, 0, 1))]:
        k = round(1.0 / default_bandwidth(n, "andrews")) - 1
        assert 64 * k ** 3 <= 27 * n < 64 * (k + 1) ** 3, n


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


def test_full_lag_sum_vanishes_for_ols_scores():
    _, W, _ = fitted_scores(300)
    N = W.shape[0]
    # the lags -h contribute the transposes of the lags h
    total = lambda_hat(W, 0) + sum(lambda_hat(W, h) + lambda_hat(W, h).T
                                   for h in range(1, N))
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


def loop_psi_hac(W, spec, S):
    """psi_hac as a loop over the lags, skipping zero weights."""
    N = W.shape[-2]
    T = min(spec.truncation, N - 1)
    psi = S[..., 0, :, :] / N * kernel_weight(spec, 0.0)
    for h in range(1, T + 1):
        w = kernel_weight(spec, h * spec.bandwidth)
        if w != 0.0:
            lam = S[..., h, :, :] / N
            psi = psi + w * (lam + mT(lam))
    return psi


@pytest.mark.parametrize("kind", ["rect", "bartlett", "parzen", "qs"])
@pytest.mark.parametrize("bandwidth", [2.0, 0.2, 1 / 21, 0.45])
def test_psi_hac_adds_the_lags_as_a_loop_does(kind, bandwidth):
    # bandwidth 0.2 puts the Bartlett and Parzen zero weights on lag 5,
    # the support edge; 2.0 truncates all but "qs" at lag 0
    spec = KernelSpec(kind, bandwidth)
    _, W, _ = fitted_scores(300, seed=4, noise=NoiseSpec("weak-product", m=2))
    stack = np.stack([W, W[::-1], 2.0 * W])
    T = min(spec.truncation, W.shape[0] - 1)
    if kind in ("bartlett", "parzen") and bandwidth == 0.2:
        assert T == 5 and kernel_weight(spec, T * bandwidth) == 0.0
    for series in (W, stack):
        for H in (T, T + 7):  # S just long enough, and longer than needed
            S = autocovariances(series, H)
            want = loop_psi_hac(series, spec, S)
            assert psi_hac(series, spec, S).tobytes() == want.tobytes()
        assert psi_hac(series, spec).tobytes() == want.tobytes()


def test_psi_spectral_order_zero_gives_lambda0():
    _, W, _ = fitted_scores(200)
    assert np.array_equal(psi_spectral(W, 0), lambda_hat(W, 0))
    assert np.array_equal(psi_spectral(W, 0, autocovariances(W, 4)),
                          lambda_hat(W, 0))


@pytest.mark.parametrize("r", ["aic", 0, 2])
def test_psi_spectral_of_scores_without_columns_is_empty(r):
    # a season of order 0 has no regressors, so its scores have no columns
    assert psi_spectral(np.zeros((50, 0)), r).shape == (0, 0)


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


def design_fit(W, r, start):
    """Reference regression of W_n on r lags over n = start..N-1, solved by
    the normal equations of the built lag design: the lag matrices side by
    side, (q, q*r), and the residual covariance; one pair per slice."""
    Y, X = W[..., start:, :], pvar.lrv._lag_design(W, r, start)
    coef = mT(solve_guarded(mT(X) @ X, mT(X) @ Y, what="score lag regression"))
    resid = Y - X @ mT(coef)
    return coef, mT(resid) @ resid / Y.shape[-2]


def design_psi_of_order(W, r):
    """Reference Psi of one order r >= 0 through design_fit on n = r..N-1."""
    q = W.shape[-1]
    coef, cov = design_fit(W, r, r)
    Pinv = np.linalg.inv(np.eye(q) - sum(coef[..., k * q:(k + 1) * q]
                                         for k in range(r)))
    return Pinv @ cov @ mT(Pinv)


def refit_aic_order(W, r_max):
    """Reference search: refit every order 0..r_max on n = r_max..N-1."""
    N, q = W.shape
    best_r, best_aic = 0, np.inf
    for r in range(r_max + 1):
        _, cov = design_fit(W, r, r_max)
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            continue
        aic = logdet + 2.0 * r * q * q / (N - r_max)
        if aic < best_aic:
            best_r, best_aic = r, aic
    return best_r


def season_scores(model, n_cycles, noise, seeds, order):
    """Scores of every season of fits to one series per seed."""
    fit = fit_ols(simulate(model, n_cycles, noise, seed=seeds), order, demean=False)
    for i in range(len(seeds)):
        for v in range(fit.s):
            yield score_series(fit.X[v][i], fit.residuals[v][i])


def assert_same_orders_as_refit(scores):
    for W in scores:
        r_max = default_r_max(W.shape[0])
        assert select_ar_order_aic(W, r_max) == refit_aic_order(W, r_max)


@pytest.mark.parametrize("name,n_seeds", [
    ("model-I", 40), ("model-II", 100), ("model-III", 20), ("model-IV", 20)])
def test_aic_order_matches_refit_search_on_presets(name, n_seeds):
    sc = preset(name)
    assert_same_orders_as_refit(season_scores(
        sc.model, sc.n_cycles, sc.noise, range(7000, 7000 + n_seeds), 1))


def wide_model():
    """d=3, s=4, order 2, each lag-block row of absolute sum 0.75."""
    rng = np.random.default_rng(20)
    phi, sigma = [], []
    for _ in range(4):
        block = rng.standard_normal((3, 6))
        block *= 0.75 / np.abs(block).sum(axis=1, keepdims=True)
        phi.append([block[:, :3], block[:, 3:]])
        a = rng.standard_normal((3, 3))
        sigma.append(a @ a.T + np.eye(3))
    return PvarModel(s=4, d=3, phi=phi, sigma=sigma)


@pytest.mark.parametrize("kind", ["strong", "weak-product"])
def test_aic_order_matches_refit_search_on_wide_scores(kind):
    # 18-entry scores at N=4000, so r_max = 15; under m=2 product noise
    # AIC picks orders 0 to 2 here
    scores = list(season_scores(wide_model(), 4000, NoiseSpec(kind, m=2),
                                [31, 32], 2))
    assert {W.shape for W in scores} == {(4000, 18)}
    assert default_r_max(4000) == 15
    assert_same_orders_as_refit(scores)


def assert_lag_moments_match_explicit_design(W, r):
    """_lag_moments against Y'Y, Y'X and X'X of the built r-lag design.

    An entry near zero is a sum of N terms that cancel, computed in
    another order by each side, so the tolerance is 1e-12 relative to
    the matrix's largest entry as well as to the entry itself.
    """
    X, Y = pvar.lrv._lag_design(W, r, r), W[..., r:, :]
    got = pvar.lrv._lag_moments(W, r, autocovariances(W, r))
    for g, want in zip(got, (mT(Y) @ Y, mT(Y) @ X, mT(X) @ X)):
        assert g.shape == want.shape
        np.testing.assert_allclose(g, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())


def test_lag_moments_from_autocovariances_match_the_design():
    rng = np.random.default_rng(12)
    assert_lag_moments_match_explicit_design(rng.standard_normal((300, 3)), 6)
    # a model-II chunk: season 1's scores of ten series, N=1000, r_max = 9
    sc = preset("model-II")
    fit = fit_ols(simulate(sc.model, sc.n_cycles, sc.noise, seed=list(range(10))),
                  1, demean=False)
    W = score_series(fit.X[0], fit.residuals[0])
    assert W.shape == (10, 1000, 4)
    assert_lag_moments_match_explicit_design(W, 9)
    # the cli-wide shape, and the shortest series r = 15 allows
    assert_lag_moments_match_explicit_design(rng.standard_normal((4000, 18)), 15)
    assert_lag_moments_match_explicit_design(rng.standard_normal((31, 2)), 15)


def test_autocovariances_are_lambda_hat_times_n():
    W = np.random.default_rng(13).standard_normal((2, 40, 3))
    S = autocovariances(W, 5)
    assert S.shape == (2, 6, 3, 3)
    for h in range(6):
        assert np.array_equal(S[:, h] / 40, lambda_hat(W, h))
    # psi_hac is the kernel-weighted lambda_hat sum, bit for bit, whether
    # it computes S or reads one with more lags
    spec = KernelSpec("parzen", 0.25)
    want = lambda_hat(W, 0) * 1.0
    for h in (1, 2, 3):
        lam = lambda_hat(W, h)
        want = want + kernel_weight(spec, h * 0.25) * (lam + mT(lam))
    assert np.array_equal(psi_hac(W, spec), want)
    assert np.array_equal(psi_hac(W, spec, S), want)


def test_default_r_max_of_a_cube_is_its_root():
    assert [default_r_max(k ** 3) for k in range(1, 13)] == list(range(1, 13))


def mixed_order_stack():
    """White-noise scores, which pick order 0, and VAR(1) scores, which
    pick a higher one: a stack of two AIC order groups."""
    rng = np.random.default_rng(6)
    white = rng.standard_normal((2000, 3))
    var1 = np.zeros((2000, 3))
    for t in range(1, 2000):
        var1[t] = 0.7 * var1[t - 1] + rng.standard_normal(3)
    return np.stack([white, var1, white[::-1].copy()])


def test_stacked_psi_spectral_fits_each_order_group():
    W = mixed_order_stack()
    r_max = default_r_max(2000)
    orders = select_ar_order_aic(W, r_max)
    assert orders.tolist() == [select_ar_order_aic(w, r_max) for w in W]
    assert orders[0] == 0 and orders[1] >= 1
    for r in ("aic", 0, 2):
        psi = psi_spectral(W, r)
        assert all(np.array_equal(psi[i], psi_spectral(w, r))
                   for i, w in enumerate(W))
    assert psi_spectral(np.zeros((2, 50, 0))).shape == (2, 0, 0)


@pytest.mark.parametrize("r", [1, 3, 9, 25, "aic"])
def test_psi_spectral_fits_each_order_as_the_lag_design_does(r):
    W = mixed_order_stack()
    for scores in (W[1], W):
        assert_close_to_reference(psi_spectral(scores, r),
                                  reference_psi_spectral(scores, r))
        # an S with more lags than the order needs gives the same Psi
        assert np.array_equal(psi_spectral(scores, r, autocovariances(scores, 30)),
                              psi_spectral(scores, r))


@pytest.mark.parametrize("estimate,H", [
    pytest.param(lambda W, S: psi_spectral(W, 3, S), 2, id="3-2"),
    # at N = 2000 and q = 3 the AIC searches up to default_r_max = 12
    pytest.param(lambda W, S: psi_spectral(W, "aic", S), 11, id="aic-11"),
    # Bartlett at bandwidth 0.3 truncates at lag 3, of weight 0.1
    pytest.param(lambda W, S: psi_hac(W, KernelSpec("bartlett", 0.3), S), 2, id="hac-2"),
    pytest.param(lambda W, S: select_ar_order_aic(W, 5, S), 4, id="r_max-4")])
def test_psi_spectral_rejects_an_S_short_of_the_order(estimate, H):
    # psi_hac raised IndexError and select_ar_order_aic a reshape error
    W = mixed_order_stack()[1]
    with pytest.raises(ValueError, match=rf"S reaches lag {H}, short of lag {H + 1}$"):
        estimate(W, autocovariances(W, H))
    estimate(W, autocovariances(W, H + 1))


@pytest.mark.parametrize("r_max", [2.0, True, -1, "3"])
def test_select_ar_order_aic_rejects_an_r_max_that_is_not_an_integer(r_max):
    W = mixed_order_stack()[1]
    with pytest.raises(ValueError, match=r"^r_max must be "):
        select_ar_order_aic(W, r_max)
    assert select_ar_order_aic(W, np.int64(2)) == select_ar_order_aic(W, 2)


def test_stacked_covariances_equal_one_fit_at_a_time_on_wide_fits():
    # the cli-wide shape: 18-entry scores at N=4000, so r_max = 15
    spec = NoiseSpec("weak-product", m=2)
    seeds = [41, 42, 43]
    methods = ["strong", "sp", "hac"]
    hac = KernelSpec("bartlett", 0.1)
    stacked = covariances(fit_ols(simulate(wide_model(), 4000, spec, seed=seeds),
                                  2, demean=False), methods, hac)
    for i, sd in enumerate(seeds):
        fit = fit_ols(simulate(wide_model(), 4000, spec, seed=sd), 2, demean=False)
        one = covariances(fit, methods, hac)
        for v in one:
            for m in methods:
                assert one[v][m].shape == (18, 18)
                assert np.array_equal(stacked[v][m][i], one[v][m])


def test_stacked_layers_raise_if_any_slice_fails():
    X, W, _ = fitted_scores(500)
    extra = np.random.default_rng(1).standard_normal((W.shape[0], 1))
    good, dup = np.hstack([W, extra]), np.hstack([W, W[:, :1]])
    assert select_ar_order_aic(good[None], 3).shape == (1,)
    with pytest.raises(NumericError,
                       match="score lag regression is numerically singular"):
        select_ar_order_aic(np.stack([good, dup]), 3)
    omega = omega_hat(X)
    with pytest.raises(NumericError,
                       match="regressor second-moment matrix is numerically singular"):
        omega_inverse(np.stack([omega, np.ones_like(omega)]))


@pytest.mark.parametrize("n", [5, 10])
def test_aic_skips_an_order_that_fits_the_common_sample_exactly(n):
    # model-I scores (q = 4) at N = 5 and 10 have N - r_max = q * r_max rows
    # in the common sample: the r_max fit is exact, and its rounding-noise
    # residual covariance won the AIC in seasons 4-5 at N = 5 and in all but
    # season 3 at N = 10, whose refit then had too few observations
    sc = preset("model-I", n_cycles=n)
    fit = fit_ols(simulate(sc.model, n, sc.noise, seed=sc.base_seed), 1, demean=False)
    r_max = default_r_max(n)
    for v in range(5):
        W = score_series(fit.X[v], fit.residuals[v])
        assert W.shape == (n, 4) and n - r_max == 4 * r_max
        assert select_ar_order_aic(W, r_max) < r_max
        psi = psi_spectral(W)
        assert np.isfinite(psi).all() and np.linalg.eigvalsh(psi).min() > 0


@pytest.mark.parametrize("n", [3, 4, 8, 9])
def test_aic_search_stops_where_the_lag_gram_loses_rank(n):
    # model-I scores (q = 4) at N = 3, 4, 8 and 9: default_r_max(N) lags
    # would give the r_max lag Gram fewer rows (N - r_max) than columns
    # (q * r_max), so the search stops at N // (q + 1)
    sc = preset("model-I", n_cycles=n)
    fit = fit_ols(simulate(sc.model, n, sc.noise, seed=sc.base_seed), 1, demean=False)
    assert n - default_r_max(n) < 4 * default_r_max(n)
    thetas = covariances(fit, ["sp"], sc.hac_spec())
    for v in range(5):
        W = score_series(fit.X[v], fit.residuals[v])
        psi = psi_spectral(W)
        assert W.shape == (n, 4) and np.isfinite(psi).all()
        assert np.linalg.eigvalsh(psi).min() >= -1e-12 * np.trace(psi)
        assert np.isfinite(thetas[v + 1]["sp"]).all()


def test_aic_duplicated_score_column_is_singular():
    _, W, _ = fitted_scores(500)
    W = np.hstack([W, W[:, :1]])
    for search in (select_ar_order_aic, refit_aic_order):
        with pytest.raises(NumericError,
                           match="score lag regression is numerically singular"):
            search(W, 3)
    assert select_ar_order_aic(W, 0) == 0


def parent_select_ar_order_aic(W, r_max, S):
    """select_ar_order_aic as it was before the Cholesky bound: the
    eigenvalue guard first, then C = solve(L, X'Y) alone."""
    stack, (N, q) = W.shape[:-2], W.shape[-2:]
    yy, cross, gram = pvar.lrv._lag_moments(W, r_max, S)
    resid = np.empty(stack + (r_max + 1, q, q))
    resid[..., 0, :, :] = yy
    if r_max and q:
        require_conditioned(gram, "score lag regression")
        try:
            L = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise NumericError(
                "score lag regression is numerically singular") from None
        C = np.linalg.solve(L, mT(cross)).reshape(stack + (r_max, q, q))
        resid[..., 1:, :, :] = (resid[..., :1, :, :]
                                - np.cumsum(mT(C) @ C, axis=-3))
    sign, logdet = np.linalg.slogdet(resid / (N - r_max))
    aic = logdet + 2.0 * np.arange(r_max + 1) * q * q / (N - r_max)
    best = np.argmin(np.where(sign > 0, aic, np.inf), axis=-1)
    return int(best) if best.ndim == 0 else best


def reference_psi_spectral(W, r="aic"):
    """psi_spectral from built lag designs: the eigenvalue-guarded search
    up to the same r_max, then every order group, order 0 included,
    refitted by design_psi_of_order."""
    N, q = W.shape[-2:]
    flat = W.reshape((-1, N, q))
    if r == "aic":
        r_max = min(default_r_max(N), N // (q + 1))
        orders = np.reshape(parent_select_ar_order_aic(
            W, r_max, autocovariances(W, r_max)), -1)
    else:
        orders = np.full(flat.shape[0], int(r))
    psi = np.empty((flat.shape[0], q, q))
    for order in sorted(set(orders.tolist())):
        at = orders == order
        psi[at] = design_psi_of_order(flat[at], order)
    return psi.reshape(W.shape[:-2] + (q, q))


def assert_close_to_reference(got, want):
    """Within 1e-12 of the largest entry: the moment fit and the design fit
    sum the same products in another order."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name,seeds,ar_order", [
    ("model-II", range(10), "aic"), ("model-II", range(10), 0),
    ("wide", [41, 42, 43], "aic"), ("wide", [41, 42, 43], 1)])
def test_covariances_equal_the_eigenvalue_guarded_refit_bit_for_bit(
        monkeypatch, name, seeds, ar_order):
    # a model-II chunk (q * r_max = 36) and a wide one (270), each
    # searched under the Cholesky-bound guard; both hold order-0 and higher
    # order groups.  "strong" and "hac" stay bit for bit; "sp" fits orders
    # from moments, not from the design, so it agrees to 1e-12 relative
    if name == "wide":
        model, n, order, noise = wide_model(), 4000, 2, NoiseSpec("weak-product", m=2)
    else:
        sc = preset(name)
        model, n, order, noise = sc.model, sc.n_cycles, 1, sc.noise
    fit = fit_ols(simulate(model, n, noise, seed=list(seeds)), order, demean=False)
    methods, hac = ["strong", "sp", "hac"], KernelSpec("bartlett", 0.1)
    got = covariances(fit, methods, hac, ar_order)
    if ar_order == "aic":
        orders = np.concatenate([select_ar_order_aic(
            score_series(X, E), default_r_max(n)) for X, E in zip(fit.X, fit.residuals)])
        assert 0 in orders and orders.max() >= 1
    monkeypatch.setattr(pvar.lrv, "psi_spectral",
                        lambda W, r, S: reference_psi_spectral(W, r))
    want = covariances(fit, methods, hac, ar_order)
    for v in want:
        for m in ("strong", "hac"):
            assert got[v][m].tobytes() == want[v][m].tobytes()
        assert_close_to_reference(got[v]["sp"], want[v]["sp"])


def _outcome(search, W, r_max):
    """The order a search picks, or the class and message it raises, with
    numpy's floating-point errors ignored and raised (as in the CLI)."""
    out = []
    for err in ("ignore", "raise"):
        try:
            with np.errstate(over=err, invalid=err, divide=err):
                out.append(np.asarray(
                    search(W, r_max, autocovariances(W, r_max))).tolist())
        except (NumericError, FloatingPointError) as exc:
            out.append((type(exc), str(exc)))
    return out


@pytest.mark.parametrize("q,r_max", [(4, 9), (18, 15)])
def test_aic_guard_raises_as_the_eigenvalue_guard(q, r_max):
    # at q * r_max = 36 and 270 the Cholesky-bound guard raises exactly
    # where the eigenvalue guard first did
    rng = np.random.default_rng(q)
    base = rng.standard_normal((1000, q))
    cases = [np.zeros((1000, q)), np.hstack([base[:, 1:], base[:, :1]])]
    for bad in (np.nan, np.inf):
        W = base.copy()
        W[500, 1] = bad
        cases.append(W)
    cases.append(np.hstack([base[:, :-1], base[:, :1]]))  # duplicated column
    for eps in (1e-9, 1e-7, 1e-6, 1e-5, 1e-3):  # nearly collinear columns
        cases.append(np.hstack([base[:, :-1],
                                base[:, :1] + eps * base[:, -1:]]))
    # scales where L^-1 squared overflows, of all columns and of one
    for scale in (1e-150, 1e-155, 1e-160):
        cases += [base * scale, np.hstack([base[:, :-1], base[:, -1:] * scale])]
    outcomes = []
    for W in cases:
        want = _outcome(parent_select_ar_order_aic, W, r_max)
        assert _outcome(select_ar_order_aic, W, r_max) == want
        # the same series inside a stack of good ones
        stack = np.stack([base, W, base[::-1]])
        assert (_outcome(select_ar_order_aic, stack, r_max)
                == _outcome(parent_select_ar_order_aic, stack, r_max))
        outcomes.append(want)
    raised = [o[0] == (NumericError, "score lag regression is numerically singular")
              for o in outcomes]
    assert raised[:5] == [True, False, True, True, True]
    assert True in raised[5:10] and False in raised[5:10]  # eps crosses the limit


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


def var1_scores(R=200, N=4000, seed=20240):
    """R score series of a stationary VAR(1), W_n = A W_{n-1} + e_n with
    Cov e_n = Sigma, and their long-run variance (I - A)^-1 Sigma (I - A)^-T,
    lag-0 covariance Gamma_0 and A."""
    A = np.array([[0.5, 0.1, 0.0], [0.05, 0.3, -0.1], [0.0, 0.1, -0.4]])
    chol = np.array([[1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [-0.2, 0.4, 0.8]])
    q, sigma = 3, chol @ chol.T
    # vec Gamma_0 = (I - A (x) A)^-1 vec Sigma
    gamma0 = np.linalg.solve(np.eye(q * q) - np.kron(A, A),
                             sigma.reshape(-1)).reshape(q, q)
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((N, R, q)) @ chol.T
    W = np.empty((N, R, q))
    W[0] = rng.standard_normal((R, q)) @ np.linalg.cholesky(gamma0).T
    for n in range(1, N):
        W[n] = W[n - 1] @ A.T + e[n]
    P = np.linalg.inv(np.eye(q) - A)
    return np.swapaxes(W, 0, 1), P @ sigma @ P.T, gamma0, A


def test_long_run_variance_of_var1_scores():
    # scores whose lags matter: against the lag-0 moment they change Psi's
    # diagonal by factors 1/0.31, 1/0.52 and 1/2.05.  Over 200 series the
    # mean's relative error has a spread (sd over ten seeds) of 0.3-0.6%,
    # so both bands are 2.5%.
    W, psi, gamma0, A = var1_scores()
    N, diag = W.shape[-2], np.diag(psi)
    assert np.allclose(np.diag(gamma0) / diag, [0.308, 0.523, 2.046], atol=1e-3)
    sp = np.diag(psi_spectral(W).mean(axis=0))
    assert np.abs(sp / diag - 1).max() < 0.025
    # the Bartlett HAC at the Andrews bandwidth has a truncation bias: its
    # mean is Gamma_0 + sum_h w_h (1 - h/N) (Gamma_h + Gamma_h'), with
    # Gamma_h = A^h Gamma_0, which is 12% low, 7% low and 6% high here
    spec = KernelSpec("bartlett", default_bandwidth(N))
    expected, gamma = gamma0.copy(), gamma0
    for h in range(1, spec.truncation + 1):
        gamma = A @ gamma
        expected += kernel_weight(spec, h * spec.bandwidth) * (N - h) / N * (gamma + gamma.T)
    assert np.allclose(np.diag(expected) / diag - 1, [-0.121, -0.065, 0.061], atol=1e-3)
    hac = np.diag(psi_hac(W, spec).mean(axis=0))
    assert np.abs((hac - np.diag(expected)) / diag).max() < 0.025


# sandwich assembly ----------------------------------------------------------

def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def test_theta_strong_identity_omega():
    sigma = np.array([[2.0, 0.3], [0.3, 1.0]])
    theta = theta_strong(omega_inverse(np.eye(3)), sigma)
    assert np.allclose(theta, np.kron(np.eye(3), sigma))


def test_sandwich_reduces_to_strong():
    rng = np.random.default_rng(4)
    omega = random_spd(rng, 2)
    sigma = random_spd(rng, 2)
    psi = np.kron(omega, sigma)
    omega_inv = omega_inverse(omega)
    assert np.allclose(theta_sandwich(omega_inv, psi, 2),
                       theta_strong(omega_inv, sigma), atol=1e-12)


def test_covariances_builder_matches_parts():
    ser = simulate(example_model(), 1500, NoiseSpec("weak-product", m=1), seed=11)
    fit = fit_ols(ser, 1, demean=False)
    spec = KernelSpec("parzen", 0.2)
    got = covariances(fit, ["strong", "sp", "hac"], spec, ar_order=1)
    assert list(got) == [1, 2]
    for v in (1, 2):
        X = fit.X[v - 1]
        omega_inv = omega_inverse(omega_hat(X))
        W = score_series(X, fit.residuals[v - 1])
        assert list(got[v]) == ["strong", "sp", "hac"]
        assert np.array_equal(got[v]["strong"],
                              theta_strong(omega_inv, fit.sigma_tilde[v - 1]))
        assert np.array_equal(got[v]["sp"],
                              theta_sandwich(omega_inv, psi_spectral(W, 1), 2))
        assert np.array_equal(got[v]["hac"],
                              theta_sandwich(omega_inv, psi_hac(W, spec), 2))
    only2 = covariances(fit, ["hac", "strong"], spec, ar_order=1, seasons=[2])
    assert list(only2) == [2]
    for m in ("hac", "strong"):
        assert np.array_equal(only2[2][m], got[2][m])
    aic = covariances(fit, ["sp"], spec)
    W1 = score_series(fit.X[0], fit.residuals[0])
    assert np.array_equal(aic[1]["sp"], theta_sandwich(
        omega_inverse(omega_hat(fit.X[0])), psi_spectral(W1), 2))
    with pytest.raises(ValueError, match="unknown covariance method"):
        covariances(fit, ["white"], spec)


def test_covariances_rejects_a_hac_kernel_that_weights_every_lag_one():
    # Psi was (sum W)(sum W)' / N, zero up to rounding by the normal
    # equations, and the sandwich gave standard errors of about 1e-9
    fit = fit_ols(simulate(example_model(), 200, NoiseSpec(), seed=3), [1, 0])
    N = fit.n_used
    for spec in (KernelSpec("rect", 1.0 / N), KernelSpec("qs", 1e-300)):
        with pytest.raises(NumericError, match=f"every score lag up to {N - 1} by 1"):
            psi_hac(score_series(fit.X[0], fit.residuals[0]), spec)
        with pytest.raises(NumericError, match=f"every score lag up to {N - 1} by 1"):
            covariances(fit, ["strong", "hac"], spec)
        # season 2 has no coefficients, and the other methods do not weight lags
        assert covariances(fit, ["hac"], spec, seasons=[2])[2]["hac"].shape == (0, 0)
        covariances(fit, ["strong", "sp"], spec)


@pytest.mark.parametrize("kind,bandwidth", [("rect", 1.0 / 50), ("qs", 1e-300)])
def test_psi_hac_rejects_a_kernel_that_weights_every_lag_one(monkeypatch, kind,
                                                              bandwidth):
    # it returned Psi ~ 0 here, where only covariances raised; the check
    # runs before the autocovariance sums it would otherwise compute
    W = np.random.default_rng(4).standard_normal((3, 50, 4))
    monkeypatch.setattr(pvar.lrv, "autocovariances", None)
    with pytest.raises(NumericError) as exc:
        psi_hac(W, KernelSpec(kind, bandwidth))
    assert str(exc.value) == (f"the {kind} kernel at bandwidth {bandwidth:g} weights "
                              "every score lag up to 49 by 1, so the HAC Psi is zero")


def test_psi_hac_of_scores_with_no_columns_is_empty_under_any_kernel():
    # an order-0 season has no coefficients, so no Psi to be zero
    for spec in (KernelSpec("rect", 1.0 / 50), KernelSpec("qs", 1e-300), KernelSpec()):
        assert psi_hac(np.zeros((50, 0)), spec).shape == (0, 0)
        assert psi_hac(np.zeros((3, 50, 0)), spec).shape == (3, 0, 0)


def test_covariances_of_strong_alone_builds_no_scores(monkeypatch):
    fit = fit_ols(simulate(example_model(), 100, NoiseSpec(), seed=2), 1)
    want = covariances(fit, ["strong"], KernelSpec())

    def fail(*args, **kwargs):
        raise AssertionError("scores were built")

    monkeypatch.setattr(pvar.lrv, "score_series", fail)
    monkeypatch.setattr(pvar.lrv, "autocovariances", fail)
    got = covariances(fit, ["strong"], KernelSpec())
    assert all(np.array_equal(got[v]["strong"], want[v]["strong"]) for v in want)


@pytest.mark.parametrize("methods,hac,ar_order,lag", [
    (["sp"], KernelSpec("bartlett", 1e-3), "aic", "sp"),
    (["hac"], KernelSpec(), 100, "hac"),
    (["sp", "hac"], KernelSpec("bartlett", 0.05), "aic", "hac"),
    (["hac", "strong", "sp"], KernelSpec(), 30, "sp")])
def test_covariances_sums_only_the_lags_its_estimators_read(monkeypatch, methods, hac,
                                                             ar_order, lag):
    # the sums ran to the larger of the HAC truncation and the AIC bound
    # or order whichever methods were asked for: to lag 299 for "sp" at
    # bandwidth 1e-3, and to lag 100 for "hac" at ar_order 100
    fit = fit_ols(simulate(example_model(), 300, NoiseSpec(), seed=2), 1)
    N, q = fit.n_used, 4
    assert spectral_lags(N, q) == min(default_r_max(N), N // (q + 1)) == 6
    depth = {"sp": spectral_lags(N, q, ar_order), "hac": min(hac.truncation, N - 1)}[lag]
    summed, real = [], pvar.lrv.autocovariances

    def spy(W, H):
        summed.append(H)
        return real(W, H)

    monkeypatch.setattr(pvar.lrv, "autocovariances", spy)
    got = covariances(fit, methods, hac, ar_order)
    assert summed == [depth] * fit.s  # one sum per season
    for v in got:  # as from the sums of every lag
        X = fit.X[v - 1]
        W, omega_inv = score_series(X, fit.residuals[v - 1]), omega_inverse(omega_hat(X))
        S = real(W, N - 1)
        for m in set(methods) - {"strong"}:
            psi = psi_spectral(W, ar_order, S) if m == "sp" else psi_hac(W, hac, S)
            assert np.array_equal(got[v][m], theta_sandwich(omega_inv, psi, 2))


def test_covariances_rejects_an_unknown_method_before_any_work(monkeypatch):
    fit = fit_ols(simulate(example_model(), 100, NoiseSpec(), seed=2), 1)

    def fail(*args, **kwargs):
        raise AssertionError("an estimator ran")

    monkeypatch.setattr(pvar.lrv, "omega_hat", fail)
    monkeypatch.setattr(pvar.lrv, "psi_spectral", fail)
    with pytest.raises(ValueError, match="unknown covariance method 'white'"):
        covariances(fit, ["sp", "white"], KernelSpec())


@pytest.mark.parametrize("seasons", [[0], [6], [], [2, 6], [2, 2]])
def test_covariances_rejects_seasons_outside_the_fit_before_any_work(
        monkeypatch, seasons):
    # [0] read season 5 through X[-1], [6] raised IndexError, [] gave
    # every season and [2, 2] estimated season 2 twice under one key; the
    # least season is errors.require_int's rule
    model = preset("model-I").model
    fit = fit_ols(simulate(model, 100, NoiseSpec(), seed=2), 1)

    def fail(*args, **kwargs):
        raise AssertionError("an estimator ran")

    monkeypatch.setattr(pvar.lrv, "omega_hat", fail)
    message = (r"^season must be at least 1, got 0$" if 0 in seasons
               else r"^seasons must be nonempty, distinct and in 1\.\.5, got \[.*\]$")
    with pytest.raises(ValueError, match=message):
        covariances(fit, ["strong"], KernelSpec(), seasons=seasons)
    monkeypatch.undo()
    assert list(covariances(fit, ["strong"], KernelSpec(), seasons=(5, 1))) == [5, 1]
    assert list(covariances(fit, ["strong"], KernelSpec())) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("seasons", [[1.0], [True], [np.bool_(True)], [2, "3"],
                                     [np.float64(2)]])
def test_covariances_rejects_seasons_that_are_not_integers(monkeypatch, seasons):
    # [1.0] passed the range check and then raised TypeError from
    # fit.X[v - 1]; [True] returned season 1 under the key True
    model = preset("model-I").model
    fit = fit_ols(simulate(model, 100, NoiseSpec(), seed=2), 1)
    monkeypatch.setattr(pvar.lrv, "omega_hat", lambda X: 1 / 0)
    with pytest.raises(ValueError, match=r"^season must be an integer, got \S+$"):
        covariances(fit, ["strong"], KernelSpec(), seasons=seasons)
    monkeypatch.undo()
    got = covariances(fit, ["strong"], KernelSpec(), seasons=[np.int64(2), np.uint8(4)])
    ref = covariances(fit, ["strong"], KernelSpec(), seasons=[2, 4])
    assert list(got) == [2, 4]
    assert all(np.array_equal(got[v]["strong"], ref[v]["strong"]) for v in (2, 4))


@pytest.mark.parametrize("ar_order", [2.7, True, -1, "3"])
@pytest.mark.parametrize("methods", [["strong"], ["sp"], ["hac", "strong"]])
def test_covariances_rejects_an_ar_order_that_is_not_an_integer(
        monkeypatch, methods, ar_order):
    # 2.7 ran order 2, True order 1 and "3" order 3; -1 raised numpy's
    # reshape error
    fit = fit_ols(simulate(example_model(), 100, NoiseSpec(), seed=2), 1)
    monkeypatch.setattr(pvar.lrv, "omega_hat", lambda X: 1 / 0)
    with pytest.raises(ValueError, match=r"^ar_order must be "):
        covariances(fit, methods, KernelSpec(), ar_order)
    monkeypatch.undo()
    got = covariances(fit, methods, KernelSpec(), np.int64(2))
    ref = covariances(fit, methods, KernelSpec(), 2)
    assert all(np.array_equal(got[v][m], ref[v][m]) for v in ref for m in methods)


def test_covariances_inverts_each_omega_once(monkeypatch):
    ser = simulate(example_model(), 300, NoiseSpec("weak-product", m=1), seed=4)
    fit = fit_ols(ser, 1, demean=False)
    whats = []

    def counting_solve(a, b, what="matrix"):
        whats.append(what)
        return solve_guarded(a, b, what=what)

    monkeypatch.setattr(pvar.lrv, "solve_guarded", counting_solve)
    covariances(fit, ["strong", "sp", "hac"], KernelSpec("bartlett", 0.2),
                ar_order=1)
    assert whats.count("regressor second-moment matrix") == fit.s


def test_s1_reduction_matches_plain_var():
    # on s=1 data every per-season quantity must equal a plain VAR version
    model = PvarModel(s=1, d=2, phi=[[np.array([[0.5, 0.1], [0.0, 0.3]])]],
                      sigma=[np.eye(2)])
    ser = simulate(model, 400, seed=8)
    fit = fit_ols(ser, 1, demean=False)
    X, Z = fit.X[0], build_design(ser, 1)[0][0]
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
    assert np.allclose(theta, theta_sandwich(omega_inverse(omega_hat(X)), psi_hac(W, KernelSpec("bartlett", 0.25)), 2),
                       atol=1e-12)


def svd_guarded_psi_of_order(ends, N, r, S):
    """_psi_of_order written out: the z=1 guard takes one SVD per slice of P."""
    q = ends.shape[-1]
    yy, yx, xx = pvar.lrv._lag_moments(ends, r, S)
    coef = mT(solve_guarded(xx, mT(yx), what="score lag regression"))
    cov = (yy - coef @ mT(yx)) / (N - r)
    P = np.eye(q)
    for k in range(r):
        P = P - coef[..., k * q:(k + 1) * q]
    if (np.linalg.cond(P) > 1e10).any():
        raise NumericError("score autoregression is nearly noninvertible at z=1")
    Pinv = np.linalg.inv(P)
    return Pinv @ cov @ mT(Pinv)


def unit_root_scores(lag, N=8):
    """Zero scores of length N with S_0 = I and S_1 = lag: their order-1
    fit has the lag matrix `lag`, so P = I - lag."""
    q = lag.shape[-1]
    S = np.zeros(lag.shape[:-2] + (2, q, q))
    S[..., 0, :, :] = np.eye(q)
    S[..., 1, :, :] = lag
    return np.zeros(lag.shape[:-2] + (N, q)), S


def lag_of_p(smallest):
    """The lag matrix I - P for P = R diag(1, smallest) R', R a rotation."""
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    return np.eye(2) - rot @ np.diag([1.0, smallest]) @ rot.T


def z1_case(lags):
    """psi_spectral of unit_root_scores at order 1, and the SVD-guarded
    formula on the same end rows and S."""
    W, S = unit_root_scores(lags)
    ends = np.concatenate([W[..., :1, :], W[..., -1:, :]], axis=-2)
    return (lambda: psi_spectral(W, 1, S),
            lambda: svd_guarded_psi_of_order(ends, W.shape[-2], 1, S))


def test_z1_guard_raises_and_passes_as_the_svd_guard():
    lags = {"clear": lag_of_p(0.5), "below": lag_of_p(1 / 0.95e10),
            "above": lag_of_p(1 / 1.05e10), "singular": np.diag([0.0, 1.0])}
    P = {k: np.eye(2) - lag for k, lag in lags.items()}
    assert 0.9e10 < np.linalg.cond(P["below"]) < 1e10
    assert 1e10 < np.linalg.cond(P["above"]) < 1.1e10
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(P["singular"])
    stacks = [("clear", "below"), ("below", "clear", "below"), ("clear", "above"),
              ("above", "below"), ("below", "singular", "clear"), tuple(lags)]
    for names in [(k,) for k in lags] + stacks:
        for alone in ([False, True] if len(names) == 1 else [False]):
            stack = np.stack([lags[k] for k in names])
            got, want = z1_case(stack[0] if alone else stack)
            if set(names) <= {"clear", "below"}:
                assert got().tobytes() == want().tobytes()
                continue
            for call in (got, want):
                with pytest.raises(NumericError, match="^score autoregression "
                                   "is nearly noninvertible at z=1$"):
                    call()
