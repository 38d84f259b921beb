import numpy as np
import pytest

from pvar.errors import DataError, NumericError
from pvar.estimate import PeriodicSeries, build_design, demean_seasonal, fit_ols
from pvar.model import PvarModel
from pvar.noise import simulate


def example_model():
    return PvarModel(
        s=2, d=2,
        phi=[[np.diag([0.3, -0.6])], [np.diag([-0.7, 0.15])]],
        sigma=[np.diag([1.5, 2.5]), np.diag([1.0, 0.5])],
    )


def test_demean_centers_each_season():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((40, 2)) + np.array([5.0, -3.0])
    ser = PeriodicSeries(s=2, data=data, presample=np.ones((2, 2)))
    centered, means = demean_seasonal(ser)
    for v in range(2):
        assert np.allclose(centered.data[v::2].mean(axis=0), 0.0, atol=1e-12)
    assert means.shape == (2, 2)
    # presample rows are centered with their own season's mean
    assert np.allclose(centered.presample[-1], 1.0 - means[1])
    assert np.allclose(centered.presample[-2], 1.0 - means[0])


def test_build_design_alignment():
    # with s=2, p=1: column n of X(1) must be Y[2n], of X(2) must be Y[2n+1]
    data = np.arange(1.0, 7.0).reshape(6, 1)
    ser = PeriodicSeries(s=2, data=data, presample=np.array([[0.5]]))
    Zs, Xs, n_used = build_design(ser, 1)
    assert n_used == 3
    assert Xs[0].ravel().tolist() == [0.5, 2.0, 4.0]
    assert Zs[0].ravel().tolist() == [1.0, 3.0, 5.0]
    assert Xs[1].ravel().tolist() == [1.0, 3.0, 5.0]
    assert Zs[1].ravel().tolist() == [2.0, 4.0, 6.0]


def test_build_design_drops_cycles_without_presample():
    data = np.arange(1.0, 7.0).reshape(6, 1)
    ser = PeriodicSeries(s=2, data=data)
    Zs, Xs, n_used = build_design(ser, 1)
    assert n_used == 2
    assert Xs[0].ravel().tolist() == [2.0, 4.0]


def _at(series, t):
    """Y[t] for t in the data range or the presample (t <= 0)."""
    if t >= 1:
        return series.data[t - 1]
    assert series.presample.shape[0] + t - 1 >= 0, "t precedes the presample"
    return series.presample[series.presample.shape[0] + t - 1]


def _design_by_cells(series, orders):
    """build_design's blocks copied one cell at a time through _at."""
    s, d = series.s, series.d
    Zs, Xs, n_used = build_design(series, orders)
    n0 = series.n_cycles - n_used
    refs = []
    for v in range(1, s + 1):
        p = orders[v - 1]
        Z = np.empty((d, n_used))
        X = np.empty((d * p, n_used))
        for j, n in enumerate(range(n0, series.n_cycles)):
            t = n * s + v
            Z[:, j] = _at(series, t)
            for k in range(1, p + 1):
                X[(k - 1) * d:k * d, j] = _at(series, t - k)
        refs.append((Z, X))
    return Zs, Xs, refs


@pytest.mark.parametrize("s,d,orders,presample,n_cycles,n_used", [
    (2, 1, [1, 1], 1, 3, 3),
    (3, 3, [2, 0, 3], 0, 20, 19),       # shallow presample drops a cycle
    (3, 3, [2, 0, 3], 1, 20, 19),
    (4, 2, [5, 0, 0, 7], 2, 30, 29),    # lags beyond one cycle
    (4, 3, [2, 2, 2, 2], 8, 11, 11),
    (3, 2, [0, 0, 0], 3, 9, 9),         # no regressors at all
])
def test_build_design_equals_cell_by_cell_reference(s, d, orders, presample,
                                                     n_cycles, n_used):
    rng = np.random.default_rng(s * d + presample)
    ser = PeriodicSeries(s=s, data=rng.standard_normal((n_cycles * s, d)),
                         presample=rng.standard_normal((presample, d)))
    Zs, Xs, refs = _design_by_cells(ser, orders)
    assert Zs[0].shape[1] == n_used
    for Z, X, (Z_ref, X_ref) in zip(Zs, Xs, refs):
        assert np.array_equal(Z, Z_ref) and np.array_equal(X, X_ref)
        assert X.shape == X_ref.shape
        assert Z.flags.c_contiguous and X.flags.c_contiguous


def test_build_design_gives_a_stack_c_ordered_blocks():
    # fit_ols's products round by the layout of Z and X: a block in
    # another layout (np.concatenate of transposed views keeps theirs)
    # sends BLAS down another path and changes the bits of every fit
    orders, rng = [5, 0, 1, 3], np.random.default_rng(11)
    stack = PeriodicSeries(s=4, data=rng.standard_normal((3, 120, 2)),
                           presample=rng.standard_normal((3, 2, 2)))
    Zs, Xs, n_used = build_design(stack, orders)
    for i in range(3):
        one = build_design(PeriodicSeries(4, stack.data[i], stack.presample[i]), orders)
        assert one[2] == n_used
        for Z, X, p, Z_one, X_one in zip(Zs, Xs, orders, *one[:2]):
            assert Z.shape == (3, 2, n_used) and X.shape == (3, 2 * p, n_used)
            assert Z.flags.c_contiguous and X.flags.c_contiguous
            assert np.array_equal(Z[i], Z_one) and np.array_equal(X[i], X_one)


def test_fit_recovers_coefficients_on_long_sample():
    model = example_model()
    ser = simulate(model, 30_000, seed=1)
    fit = fit_ols(ser, 1, demean=False)
    for v in range(1, 3):
        assert np.allclose(fit.B_hat[v - 1], model.phi[v - 1][0], atol=0.025)
        assert np.allclose(fit.sigma_tilde[v - 1], model.sigma[v - 1], atol=0.04)


def test_residuals_orthogonal_to_regressors():
    ser = simulate(example_model(), 500, seed=2)
    fit = fit_ols(ser, 1, demean=False)
    for v in range(1, 3):
        cross = fit.X[v - 1] @ fit.residuals[v - 1].T
        assert np.abs(cross).max() < 1e-8


def test_sigma_tilde_divisor():
    ser = simulate(example_model(), 100, seed=3)
    fit = fit_ols(ser, 1, demean=False)
    E = fit.residuals[0]
    expect = E @ E.T / (fit.n_used - 2 * 1)
    assert np.allclose(fit.sigma_tilde[0], expect)


def test_order_zero_season():
    ser = simulate(example_model(), 200, seed=4)
    fit = fit_ols(ser, [1, 0], demean=False)
    assert fit.B_hat[1].shape == (2, 0)
    Zs, _, _ = build_design(ser, [1, 0])
    assert np.allclose(fit.residuals[1], Zs[1])


def test_insufficient_data():
    ser = PeriodicSeries(s=2, data=np.random.default_rng(0).standard_normal((8, 2)))
    with pytest.raises(DataError, match="season 1: 2 cycles cannot support order 4"):
        fit_ols(ser, 4)


@pytest.mark.parametrize("order", [1.9, 2.0, "1", True, np.True_, -1])
def test_orders_that_are_not_nonnegative_integers_raise(order):
    # 1.9 and "1" fitted order 1, and True fitted order 1 as well
    ser = simulate(example_model(), 100, seed=4)
    for orders in (order, [1, order]):
        for call in (fit_ols, build_design):
            with pytest.raises(ValueError, match=r"^order must be "):
                call(ser, orders)
    assert fit_ols(ser, [np.int64(1), np.uint8(0)]).orders == [1, 0]


@pytest.mark.parametrize("s", [2.5, True, 0])
def test_periodic_series_rejects_a_period_that_is_not_a_positive_integer(s):
    # s = 2.5 gave n_cycles 40.0, True one season and 0 a ZeroDivisionError
    with pytest.raises(ValueError, match=r"^s must be "):
        PeriodicSeries(s, np.zeros((100, 2)))
    assert PeriodicSeries(np.int64(2), np.zeros((100, 2))).n_cycles == 50


@pytest.mark.parametrize("orders", [[1, 1], [2, 0], [0, 3]])
def test_stacked_fit_equals_each_slice_fitted_alone(orders):
    stack = simulate(example_model(), 120, seed=[5, 6, 7])
    stack.data[1] += np.array([4.0, -2.0])  # seasonal means to remove
    for demean in (True, False):
        fit = fit_ols(stack, orders, demean=demean)
        for i in range(3):
            one = fit_ols(PeriodicSeries(2, stack.data[i], stack.presample[i]),
                          orders, demean=demean)
            assert fit.n_used == one.n_used
            for v in range(2):
                for name in ("B_hat", "residuals", "sigma_tilde", "X"):
                    assert np.array_equal(getattr(fit, name)[v][i],
                                          getattr(one, name)[v])


def test_stacked_fit_raises_if_one_slice_is_singular():
    good = simulate(example_model(), 100, seed=8)
    stack = PeriodicSeries(2, np.stack([good.data, np.zeros_like(good.data)]),
                           np.stack([good.presample, np.zeros_like(good.presample)]))
    for demean in (True, False):
        with pytest.raises(NumericError,
                           match="season 1 design is numerically singular"):
            fit_ols(stack, 1, demean=demean)
        alone = fit_ols(PeriodicSeries(2, stack.data[:1], stack.presample[:1]), 1,
                        demean=demean)
        assert np.array_equal(alone.B_hat[0][0],
                              fit_ols(good, 1, demean=demean).B_hat[0])
