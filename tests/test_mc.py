import dataclasses

import numpy as np
import pytest

from pvar.infer import chisq_sf
from pvar.mc import (METHODS, PRESET_NAMES, Scenario, preset, run_scenario,
                     sse_summary, _replication)
from pvar.noise import NoiseSpec


def small_scenario(name="model-I", reps=20, n=300, seed=99):
    return preset(name, n_cycles=n, reps=reps, base_seed=seed)


def test_preset_names_and_validation():
    for name in PRESET_NAMES:
        sc = preset(name)
        assert sc.model.s == 5 and sc.model.d == 2
    with pytest.raises(ValueError):
        preset("model-V")
    with pytest.raises(ValueError):
        Scenario(name="x", model=preset("model-I").model,
                 noise=NoiseSpec(), n_cycles=10, reps=0)
    with pytest.raises(ValueError):
        Scenario(name="x", model=preset("model-I").model,
                 noise=NoiseSpec(), n_cycles=10, reps=1, levels=(1.5,))


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


def test_hac_bandwidth_defaults():
    assert preset("model-I").hac_spec().bandwidth == pytest.approx(1 / 21)
    assert preset("model-III").hac_spec().bandwidth == pytest.approx(1 / 12)


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
    assert len(rep.rejection) == 5 * len(METHODS) * 3


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
    rows = _replication(sc, sc.base_seed)
    for v in range(5):
        row = rows[v]
        beta = row["beta"]
        for name, theta in row["thetas"].items():
            se2 = theta[3, 3] / row["n"]
            z2 = beta[3] ** 2 / se2
            assert row["pvals"][name] == pytest.approx(chisq_sf(z2, 1), abs=1e-10)


def test_sse_summary_structure():
    rep = run_scenario(small_scenario(reps=10))
    rows = sse_summary(rep)
    assert len(rows) == 5 * 4
    for r in rows:
        assert r["empirical"] >= 0.0
        assert set(r["estimated"]) == set(METHODS)
    only2 = sse_summary(rep, season=2)
    assert {r["season"] for r in only2} == {2}


def test_sse_matches_reference_strong():
    # published replication average of N (est - true)^2 for the (1,1)
    # coefficient of season one in the strong base process is about 0.33
    rep = run_scenario(preset("dgp-strong", reps=300))
    assert rep.coef_sse[(1, 0)] == pytest.approx(0.33, rel=0.25)


def test_sse_matches_reference_weak():
    # same quantity for the (2,2) coefficient of season five, weak noise
    rep = run_scenario(preset("dgp-weak", reps=400))
    assert rep.coef_sse[(5, 3)] == pytest.approx(9.79, rel=0.25)
