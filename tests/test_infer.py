import numpy as np
import pytest
from scipy import integrate, special

from pvar.errors import NumericError
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


def test_chisq_sf_matches_regularized_gamma():
    xs = np.concatenate([np.geomspace(1e-8, 1e3, 300), np.linspace(0.05, 120, 300)])
    for df in range(1, 41):
        ours = [chisq_sf(float(x), df) for x in xs]
        np.testing.assert_allclose(ours, special.gammaincc(df / 2, xs / 2),
                                   rtol=1e-12, atol=0, err_msg=f"df={df}")


def test_chisq_sf_limits():
    assert chisq_sf(-3.0, 5) == 1.0
    assert chisq_sf(np.inf, 1) == chisq_sf(np.inf, 4) == chisq_sf(np.inf, 7) == 0.0
    # the tail underflows only where its value does
    assert chisq_sf(1500.0, 40) == pytest.approx(special.gammaincc(20, 750), rel=1e-12)


@pytest.mark.parametrize("df", [1, 2, 59, 60, 100, 200, 201, 1500, 2001])
def test_chisq_sf_where_its_term_sum_overflows(df):
    # the sum of y^i / i! overflowed to inf before exp(-y) scaled it,
    # from x of about 1.4e3 (df >= 1420) to 1.5e12 (df = 59); the
    # statistics span that boundary, and near df it is crossed at p ~ 1
    xs = np.concatenate([np.geomspace(1e2, 1e14, 400), df * np.linspace(0.9, 2.0, 50)])
    ours = np.array([chisq_sf(float(x), df) for x in xs])
    assert ((ours >= 0) & (ours <= 1)).all()
    np.testing.assert_allclose(ours, special.gammaincc(df / 2, xs / 2),
                               rtol=1e-11, atol=1e-300, err_msg=f"df={df}")


def test_chisq_sf_of_a_large_statistic_with_many_restrictions_is_zero():
    # these read inf, so pvar wald printed a p-value above 1
    for x, df in ((1e5, 200), (1e6, 201), (1e8, 100), (1e12, 60)):
        assert chisq_sf(x, df) == 0.0


def test_chisq_sf_of_a_small_statistic_with_many_restrictions_is_at_most_one():
    # exp(log(total) - y) rounded past 1 where the partial sum nearly
    # equals e^y: chisq_sf(60.3, 201) read 1.000000000000001
    assert chisq_sf(60.3, 201) == 1.0
    xs = np.linspace(0.01, 50, 100)
    for df in range(1, 400):
        ours = np.array([chisq_sf(float(x), df) for x in xs])
        assert (ours <= 1).all(), f"df={df}"
        np.testing.assert_allclose(ours, special.gammaincc(df / 2, xs / 2),
                                   rtol=1e-11, atol=0, err_msg=f"df={df}")


@pytest.mark.parametrize("df", [1.5, 0, -2, float("nan")])
def test_chisq_sf_rejects_non_integer_df(df):
    with pytest.raises(ValueError, match="positive integer"):
        chisq_sf(1.0, df)


def test_normal_sf_matches_ndtr():
    xs = np.linspace(-10.0, 30.0, 4001)
    np.testing.assert_allclose([normal_sf(float(x)) for x in xs],
                               special.ndtr(-xs), rtol=1e-12, atol=0)


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
    with pytest.raises(NumericError,
                       match="restriction covariance is numerically singular"):
        wald(xi + 1.0, theta, 100, Restriction(np.eye(2), np.zeros(2)))


def test_wald_takes_any_leading_stack_axes():
    # the p-value loop walked only the first axis: a (3, 2) stack raised
    # TypeError converting a row to a float
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 2, 4, 4))
    theta = a @ np.swapaxes(a, -1, -2) + np.eye(4)
    beta = rng.standard_normal((3, 2, 4))
    rest = Restriction.coordinates([3], 4)
    res = wald(beta, theta, 100, rest)
    assert res.statistic.shape == res.p_value.shape == (3, 2)
    for i in range(3):
        for j in range(2):
            one = wald(beta[i, j], theta[i, j], 100, rest)
            assert res.statistic[i, j] == one.statistic
            assert res.p_value[i, j] == one.p_value


def test_restriction_dependent_rows_rejected():
    with pytest.raises(NumericError, match="restriction rows must be independent"):
        Restriction(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2))


@pytest.mark.parametrize("index", [True, np.True_, 1.0, -1, "1"])
def test_restriction_coordinates_must_be_nonnegative_integers(index):
    # [True] set every entry of its row, and -1 the last one
    with pytest.raises(ValueError, match=r"^index must be "):
        Restriction.coordinates([0, index], 4)
    assert np.array_equal(Restriction.coordinates([np.int64(1)], 3).R0, [[0, 1, 0]])


@pytest.mark.parametrize("indices, n_coef", [([5], 4), ([0, 4], 4), ([1], 0)])
def test_restriction_coordinates_rejects_an_index_at_or_past_the_width(indices, n_coef):
    with pytest.raises(ValueError, match=rf"^index must be below n_coef {n_coef}, "
                                         rf"got {indices[-1]}$"):
        Restriction.coordinates(indices, n_coef)
    assert Restriction.coordinates([], 0).R0.shape == (0, 0)  # a season of order 0


def test_t_report_layout_and_identity():
    rng = np.random.default_rng(3)
    beta = rng.standard_normal(4)
    a = rng.standard_normal((4, 4))
    theta = a @ a.T + 4 * np.eye(4)
    rows = t_report(2, beta, {"strong": theta}, 250)
    assert len(rows) == 4
    # vec ordering: (1,1), (2,1), (1,2), (2,2)
    assert [(r["row"], r["col"]) for r in rows] == [(1, 1), (2, 1), (1, 2), (2, 2)]
    for i, row in enumerate(rows):
        # the record pvar fit's JSON lists
        assert set(row) == {"lag", "row", "col", "estimate", "std_errors", "p_values"}
        assert row["lag"] == 1
        assert row["std_errors"]["strong"] == pytest.approx(
            np.sqrt(theta[i, i] / 250))
        # the normal p-value is the single-restriction Wald p-value
        assert row["p_values"]["strong"] == pytest.approx(
            wald(beta, theta, 250, Restriction.coordinates([i], 4)).p_value,
            rel=0, abs=1e-10)


def test_zero_estimate_has_p_one():
    theta = np.eye(1)
    rows = t_report(1, np.zeros(1), {"strong": theta}, 100)
    assert rows[0]["p_values"]["strong"] == pytest.approx(1.0)


def test_a_variance_that_is_not_positive_is_a_numeric_error():
    # a HAC Theta under a kernel that is not positive semidefinite, such
    # as rect, can have one; its standard error and Wald statistic are void
    theta = np.diag([1.0, 2.0, -0.5, 3.0])
    with pytest.raises(NumericError, match=r"^the hac variance of the lag 1 "
                       r"coefficient \(1,2\) is -0\.5, not positive$"):
        t_report(2, np.ones(4), {"strong": np.eye(4), "hac": theta}, 100)
    with pytest.raises(NumericError, match="^a restriction's variance is -0.5, not"):
        wald(np.ones(4), theta, 100, Restriction.coordinates([0, 2], 4))
    # one slice of a stack with a zero variance, though it is not singular
    stack = np.stack([np.eye(2), [[0.0, 1.0], [1.0, 0.0]], np.eye(2)])
    with pytest.raises(NumericError, match="^a restriction's variance is 0, not"):
        wald(np.ones((3, 2)), stack, 100, Restriction(np.eye(2), np.zeros(2)))
    assert wald(np.ones(4), theta, 100, Restriction.coordinates([0, 3], 4)).df == 2
