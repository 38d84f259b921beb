import numpy as np
import pytest
from scipy import integrate

from pvar.errors import SingularRestriction
from pvar.infer import Restriction, chisq_sf, normal_sf, t_report, wald


def chisq_sf_quad(x, df):
    # quadrature oracle for the upper tail
    from math import gamma

    def pdf(t):
        return t ** (df / 2 - 1) * np.exp(-t / 2) / (2 ** (df / 2) * gamma(df / 2))
    val, _ = integrate.quad(pdf, x, np.inf)
    return val


def normal_sf_quad(x):
    def pdf(t):
        return np.exp(-t * t / 2) / np.sqrt(2 * np.pi)
    val, _ = integrate.quad(pdf, x, np.inf)
    return val


@pytest.mark.parametrize("x,df", [(0.5, 1), (3.8415, 1), (9.4877, 4),
                                  (2.0, 3), (15.0, 8)])
def test_chisq_sf_against_quadrature(x, df):
    assert chisq_sf(x, df) == pytest.approx(chisq_sf_quad(x, df), abs=1e-8)


def test_chisq_known_quantiles():
    assert chisq_sf(3.8415, 1) == pytest.approx(0.05, abs=1e-4)
    assert chisq_sf(9.4877, 4) == pytest.approx(0.05, abs=1e-4)
    assert chisq_sf(0.0, 2) == 1.0


@pytest.mark.parametrize("x", [-2.0, 0.0, 0.5, 1.96, 4.0])
def test_normal_sf_against_quadrature(x):
    assert normal_sf(x) == pytest.approx(normal_sf_quad(x), abs=1e-8)


def test_t_squared_wald_identity():
    # a single-coordinate Wald p-value equals the two-sided normal p-value
    for w in (0.1, 1.0, 3.84, 10.0):
        assert chisq_sf(w, 1) == pytest.approx(2 * normal_sf(np.sqrt(w)),
                                               abs=1e-10)


def random_case(seed):
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(4)
    a = rng.standard_normal((4, 4))
    theta = a @ a.T + 4 * np.eye(4)
    R0 = rng.standard_normal((2, 4))
    r0 = rng.standard_normal(2)
    return xi, theta, R0, r0


@pytest.mark.parametrize("seed", range(5))
def test_wald_invariant_under_restriction_transform(seed):
    xi, theta, R0, r0 = random_case(seed)
    rng = np.random.default_rng(100 + seed)
    T = rng.standard_normal((2, 2)) + 3 * np.eye(2)
    base = wald(xi, theta, 500, Restriction(R0, r0))
    moved = wald(xi, theta, 500, Restriction(T @ R0, T @ r0))
    assert moved.statistic == pytest.approx(base.statistic, rel=1e-10)
    assert moved.p_value == pytest.approx(base.p_value, rel=1e-10)
    assert base.statistic >= 0.0
    assert 0.0 <= base.p_value <= 1.0


def test_wald_zero_gap():
    xi, theta, R0, _ = random_case(9)
    res = wald(xi, theta, 100, Restriction(R0, R0 @ xi))
    assert res.statistic == pytest.approx(0.0, abs=1e-20)
    assert res.p_value == 1.0


def test_wald_singular_restriction_covariance():
    xi = np.zeros(2)
    theta = np.zeros((2, 2))
    with pytest.raises(SingularRestriction):
        wald(xi + 1.0, theta, 100, Restriction(np.eye(2), np.zeros(2)))


def test_restriction_dependent_rows_rejected():
    with pytest.raises(SingularRestriction):
        Restriction(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2))


def test_t_report_layout_and_identity():
    rng = np.random.default_rng(3)
    beta = rng.standard_normal(4)
    a = rng.standard_normal((4, 4))
    theta = a @ a.T + 4 * np.eye(4)
    rows = t_report(2, 2, 1, beta, {"strong": theta}, 250)
    assert len(rows) == 4
    # vec ordering: (1,1), (2,1), (1,2), (2,2)
    assert [(r.row, r.col) for r in rows] == [(1, 1), (2, 1), (1, 2), (2, 2)]
    for i, row in enumerate(rows):
        assert row.season == 2 and row.lag == 1
        assert row.std_errors["strong"] == pytest.approx(
            np.sqrt(theta[i, i] / 250))
        # normal p-value and single-restriction Wald p-value coincide
        assert row.p_values["strong"] == pytest.approx(
            row.p_values_wald["strong"], abs=1e-10)
        # and the Wald column is exactly what wald() reports
        assert row.p_values_wald["strong"] == wald(
            beta, theta, 250, Restriction.coordinates([i], 4)).p_value


def test_zero_estimate_has_p_one():
    theta = np.eye(1)
    rows = t_report(1, 1, 1, np.zeros(1), {"strong": theta}, 100)
    assert rows[0].p_values["strong"] == pytest.approx(1.0)
