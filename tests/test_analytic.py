import numpy as np
import pytest

from pvar.analytic import (DiagExampleParams, example_model, omega_closed,
                           psi_closed, theta_closed, theta_s_closed)
from pvar.errors import NotCausal, UnsupportedOrder
from pvar.estimate import build_design, fit_ols
from pvar.lrv import score_series
from pvar.noise import simulate

# published reference diagonals for the default parameters
THETA_S_1 = (0.84, 1.40, 2.68, 4.46)
THETA_S_2 = (0.69, 0.34, 0.38, 0.19)
THETA_1 = {1: (1.79, 1.40, 2.68, 12.42), 2: (2.48, 1.40, 2.68, 13.32)}
THETA_2 = {1: (3.23, 1.79, 0.56, 2.71), 2: (9.72, 1.79, 0.56, 8.13)}


def test_parameter_validation():
    with pytest.raises(NotCausal):
        DiagExampleParams(phi1_s1=2.0, phi1_s2=0.6)


def test_omega_reference_value():
    o1, o2 = omega_closed(DiagExampleParams())
    assert o1[0, 0] == pytest.approx(1.7811, abs=1e-3)
    assert np.allclose(o1, np.diag(np.diag(o1)))
    assert np.allclose(o2, np.diag(np.diag(o2)))


def test_omega_zero_first_season_coefficient():
    p = DiagExampleParams(phi1_s1=0.0)
    o1, _ = omega_closed(p)
    assert o1[0, 0] == pytest.approx(p.phi1_s2**2 * p.sig1_s1 + p.sig1_s2)


@pytest.mark.parametrize("m,target1,target2", [(1, THETA_1[1], THETA_2[1]),
                                               (2, THETA_1[2], THETA_2[2])])
def test_theta_tables(m, target1, target2):
    t1, t2 = theta_closed(DiagExampleParams(m=m))
    assert np.allclose(np.diag(t1), target1, atol=0.01)
    assert np.allclose(np.diag(t2), target2, atol=0.01)


def test_theta_s_tables():
    t1, t2 = theta_s_closed(DiagExampleParams())
    assert np.allclose(np.diag(t1), THETA_S_1, atol=0.01)
    assert np.allclose(np.diag(t2), THETA_S_2, atol=0.01)


def test_psi_reference_value_m1():
    p1, _ = psi_closed(DiagExampleParams(m=1))
    assert p1[0, 0] == pytest.approx(5.672, abs=0.01)


def test_psi_entry_22_is_m_free():
    a, _ = theta_closed(DiagExampleParams(m=1))
    b, _ = theta_closed(DiagExampleParams(m=2))
    assert a[1, 1] == pytest.approx(b[1, 1], rel=1e-12)
    assert a[1, 1] == pytest.approx(1.40, abs=0.01)


def test_m_zero_rejected():
    with pytest.raises(UnsupportedOrder):
        psi_closed(DiagExampleParams(m=0))


def test_outputs_diagonal():
    p = DiagExampleParams(m=2)
    for mat in (*omega_closed(p), *psi_closed(p), *theta_s_closed(p),
                *theta_closed(p)):
        assert np.allclose(mat, np.diag(np.diag(mat)))


def test_theta_with_strong_psi_reduces_to_theta_s():
    p = DiagExampleParams(m=1)
    o1, o2 = omega_closed(p)
    ts1, ts2 = theta_s_closed(p)
    for omega, sigma, ts in ((o1, p.sigma(1), ts1), (o2, p.sigma(2), ts2)):
        bread = np.kron(np.linalg.inv(omega), np.eye(2))
        got = bread @ np.kron(omega, sigma) @ bread
        assert np.allclose(got, ts, atol=1e-12)


def test_weak_strong_discrepancy_ratio():
    t1, _ = theta_closed(DiagExampleParams(m=1))
    ts1, _ = theta_s_closed(DiagExampleParams(m=1))
    assert t1[3, 3] / ts1[3, 3] > 2.0


def test_monotone_in_m_for_own_channel_entries():
    prev = None
    for m in (1, 2, 3):
        t1, t2 = theta_closed(DiagExampleParams(m=m))
        cur = (t1[0, 0], t1[3, 3], t2[0, 0], t2[3, 3])
        if prev is not None:
            assert all(c >= p for c, p in zip(cur, prev))
        prev = cur


def test_sample_covariance_near_omega_season1():
    # strong-noise simulation; season 1 regressors are the season-2 values
    model, _ = example_model(m=1)
    ser = simulate(model, 100_000, None, seed=12)
    x = ser.data[1::2]
    emp = np.diag(x.T @ x / x.shape[0])
    # independently derived second moment of the season-2 points:
    # b = f2^2 (f1^2 b + s1) + s2  =>  b = (f2^2 s1 + s2) / (1 - q)
    p = DiagExampleParams()
    truth = [(f2 * f2 * s1 + s2) / (1.0 - (f1 * f2) ** 2)
             for (f1, f2), (s1, s2) in zip(p.channels(), p.variances())]
    assert np.allclose(emp, truth, rtol=0.02)


def test_psi_season1_against_simulated_score_variance():
    # variance of the normalized score sum, estimated over replications,
    # against the closed forms at m=1 (season one)
    model, spec = example_model(m=1)
    b_true = np.diag([0.3, -0.6])
    n, reps = 4_000, 800
    acc = np.zeros(4)
    for r in range(reps):
        ser = simulate(model, n, spec, seed=1000 + r, burnin=20)
        Zs, Xs, _ = build_design(ser, 1)
        # scores of the true parameter: fitted residuals sum to zero
        eps = Zs[0] - b_true @ Xs[0]
        W = score_series(Xs[0], eps)
        total = W.sum(axis=0) / np.sqrt(W.shape[0])
        acc += total**2
    emp = acc / reps
    p1, _ = psi_closed(DiagExampleParams(m=1))
    assert np.allclose(emp, np.diag(p1), rtol=0.10)
