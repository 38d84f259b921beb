import numpy as np
import pytest

from lifted import lifted_companion_radius, lifted_var
from pvar.errors import NumericError
from pvar.estimate import PeriodicSeries
from pvar.model import PvarModel, companion_spectral_radius, require_causal
from pvar.noise import simulate


def scalar_model(phis, sigmas=None):
    s = len(phis)
    sigmas = sigmas or [1.0] * s
    return PvarModel(s=s, d=1, phi=[[np.array([[f]])] for f in phis],
                     sigma=[np.array([[v]]) for v in sigmas])


def two_season_model():
    return PvarModel(
        s=2, d=2,
        phi=[[np.diag([0.3, -0.6])], [np.diag([-0.7, 0.15])]],
        sigma=[np.diag([1.5, 2.5]), np.diag([1.0, 0.5])],
    )


def test_lifted_var_two_season_order_one():
    model = two_season_model()
    phi0, phis = lifted_var(model)
    d = 2
    # blocks in reverse season order: row 0 is season 2, row 1 is season 1
    assert np.allclose(phi0[:d, :d], np.eye(d))
    assert np.allclose(phi0[d:, d:], np.eye(d))
    assert np.allclose(phi0[:d, d:], -model.phi[1][0])
    assert np.allclose(phi0[d:, :d], 0.0)
    assert len(phis) == 1
    assert np.allclose(phis[0][:d, :d], 0.0)
    assert np.allclose(phis[0][:d, d:], 0.0)
    assert np.allclose(phis[0][d:, :d], model.phi[0][0])
    assert np.allclose(phis[0][d:, d:], 0.0)


def test_lifted_var_stacked_order():
    # p = 3 on s = 2 forces p* = 2 stacked lags
    model = PvarModel(
        s=2, d=1,
        phi=[[np.array([[0.1]]), np.array([[0.2]]), np.array([[0.3]])],
             [np.array([[0.4]]), np.array([[0.5]]), np.array([[0.6]])]],
        sigma=[np.eye(1), np.eye(1)],
    )
    phi0, phis = lifted_var(model)
    assert len(phis) == 2
    # season 2 row: lag k*s - 0 + c
    assert phis[0][0, 0] == pytest.approx(0.5)   # lag 2, season 2
    assert phis[0][0, 1] == pytest.approx(0.6)   # lag 3, season 2
    assert phis[0][1, 0] == pytest.approx(0.1)   # lag 1, season 1
    assert phis[0][1, 1] == pytest.approx(0.2)   # lag 2, season 1
    assert phis[1][1, 0] == pytest.approx(0.3)   # lag 3, season 1
    assert phis[1][0, :].tolist() == [0.0, 0.0]


def test_causality_scalar_product_rule():
    # for scalar periodic AR(1) the companion radius is the coefficient product
    assert companion_spectral_radius(scalar_model([0.3, -0.7])) == pytest.approx(0.21)
    require_causal(scalar_model([0.3, -0.7]))
    assert companion_spectral_radius(scalar_model([2.0, 0.6])) == pytest.approx(1.2)
    with pytest.raises(NumericError, match="radius 1.2 is not below one"):
        require_causal(scalar_model([2.0, 0.6]))
    # large within-season coefficients are fine if the cycle contracts
    wide = scalar_model([-1.43, 0.46, 1.23, 0.30, 0.90])
    assert companion_spectral_radius(wide) < 1.0
    require_causal(wide)
    # so are stiff ones: the stacked VAR's phi0 has cond ~1e14 here
    stiff = scalar_model([1e-8, 1e7])
    assert companion_spectral_radius(stiff) == pytest.approx(0.1, rel=1e-12)
    require_causal(stiff)
    assert np.isfinite(simulate(stiff, 20, seed=3).data).all()


def test_causality_boundary():
    assert companion_spectral_radius(scalar_model([1.0, 1.0])) == pytest.approx(1.0)
    with pytest.raises(NumericError, match="is not below one"):
        require_causal(scalar_model([1.0, 1.0]))


def _random_model(rng):
    s, d = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    orders = rng.integers(0, 6, size=s)
    phi = [[rng.standard_normal((d, d)) / np.sqrt(d * max(p, 1)) for _ in range(p)]
           for p in orders]
    return PvarModel(s=s, d=d, phi=phi, sigma=[np.eye(d)] * s)


def test_radius_equals_the_lifted_companion_radius():
    rng = np.random.default_rng(2024)
    models = [_random_model(rng) for _ in range(1200)]
    # the draws reach past one cycle and include order-0 seasons
    assert any(m.max_p > m.s for m in models)
    assert any(m.max_p > 0 and min(map(len, m.phi)) == 0 for m in models)
    for model in models:
        rho, ref = companion_spectral_radius(model), lifted_companion_radius(model)
        assert abs(rho - ref) <= 1e-12 * ref, (model, rho, ref)


def test_model_validation():
    with pytest.raises(ValueError, match="need one coefficient list and one covariance"):
        PvarModel(s=2, d=2, phi=[[np.eye(2)]], sigma=[np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="coefficient matrices must be d x d"):
        PvarModel(s=1, d=2, phi=[[np.eye(3)]], sigma=[np.eye(2)])
    for s, d, name in ((2.0, 2, "s"), (True, 2, "s"), (2, 1.0, "d"), (2, 0, "d")):
        with pytest.raises(ValueError, match=rf"^{name} must be "):
            PvarModel(s=s, d=d, phi=[[np.eye(2)]] * 2, sigma=[np.eye(2)] * 2)
    model = PvarModel(s=np.int64(2), d=np.uint8(2), phi=[[np.eye(2)]] * 2,
                      sigma=[np.eye(2)] * 2)
    assert type(model.s) is int and type(model.d) is int


def test_periodic_series_indexing():
    data = np.arange(8.0).reshape(4, 2)
    pre = np.array([[-1.0, -2.0]])
    ser = PeriodicSeries(s=2, data=data, presample=pre)
    assert ser.n_cycles == 2 and ser.d == 2
    with pytest.raises(ValueError, match="presample dimension differs from data"):
        PeriodicSeries(s=2, data=data, presample=np.zeros((1, 3)))


def test_periodic_series_requires_whole_cycles():
    with pytest.raises(ValueError, match="data length must be a whole number of cycles"):
        PeriodicSeries(s=2, data=np.zeros((3, 1)))


def test_simulate_shapes_and_presample():
    model = two_season_model()
    ser = simulate(model, 50, seed=0)
    assert ser.data.shape == (100, 2)
    assert ser.presample.shape == (1, 2)
    assert ser.s == 2
