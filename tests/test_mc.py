import dataclasses

import numpy as np
import pytest

import pvar.mc
from pvar.errors import DataError, NumericError
from pvar.estimate import fit_ols
from pvar.infer import Restriction, chisq_sf, wald
from pvar.lrv import COV_METHODS, covariances, default_bandwidth
from pvar.mc import (CHUNK, PRESETS, Scenario, preset, run_scenario,
                     _fit_and_test)
from pvar.model import PvarModel
from pvar.noise import NoiseSpec, simulate


def small_scenario(name="model-I", reps=20, n=300, seed=99):
    return preset(name, n_cycles=n, reps=reps, base_seed=seed)


def test_preset_names_and_validation():
    for name in PRESETS:
        sc = preset(name)
        assert sc.model.s == 5 and sc.model.d == 2
    with pytest.raises(ValueError):
        preset("model-V")
    with pytest.raises(ValueError):
        Scenario(name="x", model=preset("model-I").model,
                 noise=NoiseSpec(), n_cycles=10, reps=0)
    with pytest.raises(ValueError):
        Scenario(name="x", model=preset("model-I").model,
                 noise=NoiseSpec(), n_cycles=0, reps=1)
    # zero is passed on to the validation, not replaced by the default
    with pytest.raises(ValueError):
        preset("model-I", reps=0)
    with pytest.raises(ValueError):
        preset("model-I", n_cycles=0)
    with pytest.raises(ValueError, match="unknown method 'white'"):
        Scenario(name="x", model=preset("model-I").model,
                 noise=NoiseSpec(), n_cycles=10, reps=1, methods=("white",))
    # a repeated method's column overwrote the first in the report
    with pytest.raises(ValueError, match="method 'modified-sp' repeated"):
        dataclasses.replace(preset("model-I", reps=3, n_cycles=100),
                            methods=("modified-sp", "modified-sp"))


@pytest.mark.parametrize("field, value", [("reps", 2.5), ("reps", True),
                                          ("n_cycles", 50.5), ("n_cycles", True)])
def test_scenario_rejects_counts_that_are_not_integers(field, value):
    # reps=2.5 and n_cycles=50.5 were accepted; run_scenario raised TypeError
    args = dict(name="x", model=preset("model-I").model, noise=NoiseSpec(),
                n_cycles=50, reps=2)
    with pytest.raises(ValueError, match=rf"^{field} must be an integer, got "):
        Scenario(**dict(args, **{field: value}))
    sc = Scenario(**dict(args, **{field: np.int64(3)}))
    assert getattr(sc, field) == 3 and type(getattr(sc, field)) is int


@pytest.mark.parametrize("count", [2, 6])
def test_restrictions_of_the_wrong_length_are_rejected(count):
    sc = preset("model-I")
    with pytest.raises(ValueError, match="one entry per season, 5"):
        dataclasses.replace(sc, restrictions=sc.restrictions[:1] * count)
    # None still means no tests
    assert dataclasses.replace(sc, restrictions=None).restrictions is None


def test_preset_dgp_values():
    sc = preset("model-IV")
    assert sc.noise.kind == "weak-product" and sc.noise.m == 2
    assert sc.n_cycles == 4000
    phi1 = sc.model.phi[0][0]
    assert phi1[0, 0] == pytest.approx(-1.43)
    assert phi1[1, 1] == pytest.approx(0.05)
    assert sc.model.sigma[2][0, 1] == pytest.approx(-0.2)
    assert preset("model-I").model.phi[0][0][1, 1] == 0.0
    assert preset("dgp-strong").model.phi[1][0][1, 1] == pytest.approx(0.70)
    # each season tests Phi22 = 0, the last entry of vec(Phi(v)) at d = 2, p = 1
    for rest in sc.restrictions:
        assert rest.R0.tolist() == [[0.0, 0.0, 0.0, 1.0]] and rest.r0.tolist() == [0.0]


def test_hac_bandwidth_defaults():
    assert preset("model-I").hac_spec().bandwidth == pytest.approx(1 / 21)
    assert preset("model-III").hac_spec().bandwidth == pytest.approx(1 / 12)
    # the preset fixes the bandwidth; the cycle count does not move it
    for n in (999, 1000, 1001):
        assert preset("model-II", n_cycles=n).hac_spec().bandwidth == 1 / 21
    # a scenario without one gets the Andrews rule at its own cycle count
    custom = dataclasses.replace(preset("model-II", n_cycles=4000),
                                 bandwidth=None)
    assert custom.hac_spec().bandwidth == default_bandwidth(4000, "andrews")


def test_report_deterministic():
    a = run_scenario(small_scenario())
    b = run_scenario(small_scenario())
    assert a.rejection == b.rejection
    assert a.coef_sse == b.coef_sse
    assert a.theta_mean == b.theta_mean
    c = run_scenario(small_scenario(seed=123456))
    assert c.rejection != a.rejection or c.coef_sse != a.coef_sse


def test_no_failures_and_counts():
    rep = run_scenario(small_scenario(reps=30))
    assert rep.failures == 0
    assert rep.completed == 30
    for key, freq in rep.rejection.items():
        assert 0.0 <= freq <= 1.0
    # all (season, method, level) combinations are present
    assert len(rep.rejection) == 5 * len(COV_METHODS) * 3


def test_method_subset_matches_full_run():
    full = run_scenario(small_scenario(name="model-II", reps=8))
    hac = run_scenario(dataclasses.replace(
        small_scenario(name="model-II", reps=8), methods=("modified-hac",)))
    assert full.completed == hac.completed == 8
    assert {k[1] for k in hac.rejection} == {"modified-hac"}
    assert {k[1] for k in hac.theta_mean} == {"modified-hac"}
    assert hac.rejection == {k: f for k, f in full.rejection.items()
                             if k[1] == "modified-hac"}
    assert hac.theta_mean == {k: t for k, t in full.theta_mean.items()
                              if k[1] == "modified-hac"}


def test_wald_pvalue_matches_t_identity_inside_replication():
    sc = small_scenario(reps=1, n=400)
    seasons, n = _fit_and_test(sc, [0])
    assert len(seasons) == 5
    for beta, diagonals, pvals in seasons:
        assert diagonals.shape == (len(sc.methods), 1, 4)
        assert pvals.shape == (len(sc.methods), 1)
        for diag, p in zip(diagonals, pvals):
            se2 = diag[0, 3] / n
            z2 = beta[0, 3] ** 2 / se2
            assert p[0] == pytest.approx(chisq_sf(z2, 1), abs=1e-10)


def assert_report_equals_one_seed_at_a_time(model):
    """run_scenario of an unrestricted scenario against one series per
    seed, summed in seed order; returns the reference fits."""
    sc = Scenario(name="ref", model=model, noise=NoiseSpec(kind="weak-product"),
                  n_cycles=60, reps=CHUNK + 3, bandwidth=0.2)
    assert sc.reps % CHUNK and sc.restrictions is None
    rep = run_scenario(sc)
    orders = [len(lags) for lags in model.phi]
    fits = [fit_ols(simulate(model, sc.n_cycles, sc.noise, seed=sc.base_seed ^ r),
                    orders, demean=False) for r in range(sc.reps)]
    thetas = [covariances(fit, list(COV_METHODS), sc.hac_spec()) for fit in fits]
    n, R = fits[0].n_used, sc.reps
    mean, sse, var, theta = {}, {}, {}, {}
    for v in range(1, model.s + 1):
        k = model.d * model.d * orders[v - 1]
        true = np.hstack(model.phi[v - 1]).T.ravel() if k else None
        for i in range(k):
            total = squares = errors = 0.0
            for fit in fits:
                b = fit.beta_hat[v - 1][i]
                total += b
                squares += b * b
                errors += n * (b - true[i]) * (b - true[i])
            mean[(v, i)] = total / R
            sse[(v, i)] = errors / R
            var[(v, i)] = squares / R - (total / R) * (total / R)
        for method, name in COV_METHODS.items():
            for i in range(k):
                total = 0.0
                for one in thetas:
                    total += one[v][method][i, i]
                theta[(v, name, i)] = total / R
    assert rep.completed == R and rep.failures == 0
    assert rep.rejection == {}
    for got, want in ((rep.coef_mean, mean), (rep.coef_sse, sse),
                      (rep.coef_var, var), (rep.theta_mean, theta)):
        assert list(got.items()) == list(want.items())
    return fits


def test_order_zero_season_without_restrictions_equals_one_seed_at_a_time():
    model = PvarModel(s=2, d=2, phi=[[[[0.5, 0.1], [0.0, -0.3]]], []],
                      sigma=[np.eye(2), [[2.0, 0.3], [0.3, 1.0]]])
    fits = assert_report_equals_one_seed_at_a_time(model)
    assert fits[1].beta_hat[1].shape == (0,)


def test_one_coefficient_seasons_add_replications_in_seed_order():
    # each season's estimates form an (R, 1) column, which np.add.reduce
    # would sum pairwise rather than row by row
    model = PvarModel(s=2, d=1, phi=[[[[0.5]]], [[[-0.4]]]], sigma=[[[1.0]], [[2.0]]])
    assert_report_equals_one_seed_at_a_time(model)


def test_sse_matches_reference_strong():
    # published replication average of N (est - true)^2 for the (1,1)
    # coefficient of season one in the strong base process is about 0.33
    rep = run_scenario(preset("dgp-strong", reps=300))
    assert rep.coef_sse[(1, 0)] == pytest.approx(0.33, rel=0.25)


def test_sse_matches_reference_weak():
    # same quantity for the (2,2) coefficient of season five, weak noise
    rep = run_scenario(preset("dgp-weak", reps=400))
    assert rep.coef_sse[(5, 3)] == pytest.approx(9.79, rel=0.25)


def _fields(report):
    return {k: v for k, v in vars(report).items() if k != "wall_time"}


def test_chunked_run_equals_one_replication_at_a_time(monkeypatch):
    # a data-dependent failure inside some replications, the same in both runs
    fit_ols = pvar.mc.fit_ols

    def failing_fit(series, *args, **kwargs):
        if np.any(series.data[..., 0, 0] > 1.0):
            raise NumericError("injected")
        return fit_ols(series, *args, **kwargs)

    monkeypatch.setattr(pvar.mc, "fit_ols", failing_fit)
    sc = small_scenario(name="model-II", reps=CHUNK + 3, n=150)
    chunked = run_scenario(sc)
    monkeypatch.setattr(pvar.mc, "CHUNK", 1)
    serial = run_scenario(sc)
    assert 0 < chunked.failures < CHUNK
    assert chunked.completed + chunked.failures == CHUNK + 3
    assert _fields(chunked) == _fields(serial)
    assert list(chunked.rejection) == list(serial.rejection)


def heavy_tailed_scenario(reps=30, m=300):
    """Product noise of m + 1 normals: at m = 300 the score moments
    underflow on some seeds, so those replications fail and the others
    complete; above m = 1000 the noise itself underflows on some seeds."""
    model = PvarModel(s=1, d=1, phi=[[np.array([[0.3]])]], sigma=[np.eye(1)])
    return Scenario("heavy-tailed", model, NoiseSpec("weak-product", m=m), 40,
                    reps, restrictions=[Restriction.coordinates([0], 1)],
                    bandwidth=0.2)


def test_failure_reasons_count_each_class_and_message_in_seed_order():
    sc = heavy_tailed_scenario()
    rep = run_scenario(sc)
    errors = [exc for r in range(sc.reps) for exc in pvar.mc._chunk(sc, [r])[1]]
    want = {}
    for exc in errors:
        key = (type(exc).__name__, str(exc))
        want[key] = want.get(key, 0) + 1
    assert 0 < rep.failures < sc.reps and len(want) >= 2
    assert list(rep.failure_reasons.items()) == list(want.items())
    assert sum(rep.failure_reasons.values()) == rep.failures
    assert run_scenario(small_scenario(reps=3, n=100)).failure_reasons == {}


def test_failed_simulation_fails_only_its_replication(monkeypatch):
    def simulate_fails_on_seed_3(model, n_cycles, spec, seed):
        if sc.base_seed ^ 3 in seed:
            raise NumericError("injected")
        return simulate(model, n_cycles, spec, seed=seed)

    monkeypatch.setattr(pvar.mc, "simulate", simulate_fails_on_seed_3)
    sc = small_scenario(reps=CHUNK + 3, n=150)
    chunked = run_scenario(sc)
    assert chunked.failures == 1 and chunked.completed == CHUNK + 2
    assert chunked.failure_reasons == {("NumericError", "injected"): 1}
    monkeypatch.setattr(pvar.mc, "CHUNK", 1)
    serial = run_scenario(sc)
    assert _fields(chunked) == _fields(serial)
    assert list(chunked.rejection) == list(serial.rejection)

    def simulate_fails(model, n_cycles, spec, seed):
        raise NumericError("injected")

    monkeypatch.setattr(pvar.mc, "simulate", simulate_fails)
    with pytest.raises(NumericError,
                       match="every replication failed, the first with: injected$"):
        run_scenario(dataclasses.replace(sc, reps=CHUNK))


@pytest.mark.parametrize("m, underflows", [(1020, 1), (1050, 2)])
def test_chunked_failures_equal_the_failures_seed_by_seed(m, underflows):
    # where a chunk's draw underflows on one seed, that replication alone
    # fails for the underflow; the others fail or pass as they do alone
    sc = heavy_tailed_scenario(reps=20, m=m)
    chunked = [exc for first in (0, 10)
               for exc in pvar.mc._chunk(sc, range(first, first + 10))[1]]
    alone = [exc for r in range(sc.reps) for exc in pvar.mc._chunk(sc, [r])[1]]
    assert ([(type(exc), str(exc)) for exc in chunked]
            == [(type(exc), str(exc)) for exc in alone])
    reasons = [str(exc) for exc in alone]
    assert reasons.count(f"weak-product noise at m = {m} underflows to 0") == underflows
    assert reasons.count("season 1 design is numerically singular") == 20 - underflows


@pytest.mark.parametrize("first,second", [(DataError, NumericError),
                                          (NumericError, DataError)])
def test_all_failed_raises_the_first_failure_in_seed_order(monkeypatch, first, second):
    def simulate_fails(model, n_cycles, spec, seed):
        if seed[0] == sc.base_seed:
            raise first("first chunk")
        raise second("second chunk")

    monkeypatch.setattr(pvar.mc, "simulate", simulate_fails)
    sc = small_scenario(reps=2 * CHUNK, n=150)
    with pytest.raises(first) as info:
        run_scenario(sc)
    assert str(info.value) == ("scenario 'model-I': every replication failed, "
                               "the first with: first chunk")


def test_underflowed_product_noise_fails_the_replications():
    sc = dataclasses.replace(small_scenario(reps=3, n=100),
                             noise=NoiseSpec("weak-product", 1300))
    with pytest.raises(NumericError, match="the first with: weak-product noise at "
                       "m = 1300 underflows to 0$"):
        run_scenario(sc)


def _restrictions(season_3):
    tests = preset("model-I").restrictions
    return tests[:2] + [season_3] + tests[3:]


@pytest.mark.parametrize("restrictions,season", [
    ([Restriction.coordinates([0], 3)] * 5, 1),  # simulated a chunk, then a ValueError
    (_restrictions("phi[3](2,2)=0"), 3),  # an AttributeError on 'R0'
    (_restrictions(Restriction.coordinates([0], 8)), 3),
])
def test_scenario_checks_its_restrictions_before_any_work(monkeypatch, restrictions,
                                                           season):
    def reached(*args, **kwargs):
        raise AssertionError("simulate reached")

    monkeypatch.setattr(pvar.mc, "simulate", reached)
    with pytest.raises(ValueError, match=f"^season {season}: restriction must be None "
                       "or a Restriction of 4 columns$"):
        run_scenario(dataclasses.replace(preset("model-I", reps=1),
                                         restrictions=restrictions))


def test_scenario_accepts_no_restriction_for_a_season():
    sc = preset("model-I", n_cycles=100, reps=2)
    sc = dataclasses.replace(sc, restrictions=[None] + sc.restrictions[1:])
    assert run_scenario(sc).completed == 2


@pytest.mark.parametrize("name", PRESETS)
def test_stacked_covariances_and_wald_equal_one_fit_at_a_time(name):
    sc = small_scenario(name, n=250)
    stacked_fit = fit_ols(simulate(sc.model, sc.n_cycles, sc.noise,
                                   seed=range(5)), 1, demean=False)
    fits = [fit_ols(simulate(sc.model, sc.n_cycles, sc.noise, seed=sd), 1,
                    demean=False) for sd in range(5)]
    methods = list(COV_METHODS)
    stacked = covariances(stacked_fit, methods, sc.hac_spec())
    n = stacked_fit.n_used
    for i, fit in enumerate(fits):
        one = covariances(fit, methods, sc.hac_spec())
        assert fit.n_used == n
        for v in range(1, 6):
            assert np.array_equal(stacked_fit.beta_hat[v - 1][i],
                                  fit.beta_hat[v - 1])
            for name in ("B_hat", "residuals", "sigma_tilde", "X"):
                assert np.array_equal(getattr(stacked_fit, name)[v - 1][i],
                                      getattr(fit, name)[v - 1])
            for m in methods:
                assert np.array_equal(stacked[v][m][i], one[v][m])
    for v in range(1, 6):
        rest = sc.restrictions[v - 1]
        # a (methods, R) stack, as _fit_and_test tests it
        beta = stacked_fit.beta_hat[v - 1]
        both = wald(np.broadcast_to(beta, (len(methods),) + beta.shape),
                    np.stack([stacked[v][m] for m in methods]), n, rest)
        assert both.statistic.shape == both.p_value.shape == (len(methods), 5)
        for j, m in enumerate(methods):
            got = wald(beta, stacked[v][m], n, rest)
            assert both.statistic[j].tobytes() == got.statistic.tobytes()
            assert both.p_value[j].tobytes() == got.p_value.tobytes()
            for i, fit in enumerate(fits):
                ref = wald(fit.beta_hat[v - 1],
                           covariances(fit, [m], sc.hac_spec())[v][m], n, rest)
                assert got.statistic[i] == ref.statistic
                assert got.p_value[i] == ref.p_value


def test_stacked_stage_failure_fails_only_its_replication(monkeypatch):
    # a data-dependent failure of some slices of the stacked covariances
    covs = pvar.mc.covariances

    def failing_covariances(fit, *args, **kwargs):
        if np.any(fit.X[0][..., 0, 0] > 1.0):
            raise NumericError("injected")
        return covs(fit, *args, **kwargs)

    monkeypatch.setattr(pvar.mc, "covariances", failing_covariances)
    sc = small_scenario(name="model-II", reps=2 * CHUNK + 3, n=150)
    chunked = run_scenario(sc)
    monkeypatch.setattr(pvar.mc, "CHUNK", 1)
    serial = run_scenario(sc)
    assert 0 < chunked.failures < CHUNK
    assert chunked.completed + chunked.failures == 2 * CHUNK + 3
    assert _fields(chunked) == _fields(serial)
    assert list(chunked.rejection) == list(serial.rejection)


@pytest.mark.parametrize("scenario", [
    small_scenario(name="model-II", reps=CHUNK + 3, n=150), heavy_tailed_scenario()])
def test_report_values_are_python_floats(scenario):
    rep = run_scenario(scenario)
    for name in ("rejection", "coef_mean", "coef_sse", "coef_var", "theta_mean"):
        values = list(getattr(rep, name).values())
        assert values and all(type(x) is float for x in values), name
    assert all(type(count) is int for count in rep.failure_reasons.values())
