"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import inputs
import spans
import workloads

ROOT = workloads.ROOT
sys.path.insert(0, workloads.SRC)
RUN = os.path.join(workloads.BENCH, "run.py")


def _config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# checks reject wrong answers


def test_mc_checks_reject_wrong_answers():
    assert checks.no_failed_replications(0) == []
    assert checks.no_failed_replications(1)

    true = {(1, 0): 0.5, (1, 3): 0.0}
    se = {(1, 0): 0.01, (1, 3): 0.01}
    assert checks.coefficient_means({(1, 0): 0.52, (1, 3): -0.03}, se, true, 5) == []
    assert checks.coefficient_means({(1, 0): 0.56, (1, 3): 0.0}, se, true, 5)

    exact = {(1, 0): 2.0}
    assert checks.standard_theta_means({(1, 0): 2.05}, {(1, 0): 0.001}, exact, 5, 0.03) == []
    assert checks.standard_theta_means({(1, 0): 2.2}, {(1, 0): 0.001}, exact, 5, 0.03)

    good = {1: {"standard": 0.45, "modified-sp": 0.07, "modified-hac": 0.08}}
    assert checks.over_rejection(good, 0.15) == []
    bad = {1: {"standard": 0.45, "modified-sp": 0.07, "modified-hac": 0.35}}
    assert checks.over_rejection(bad, 0.15)

    theta = {1: {"standard": 1.0, "modified-sp": 6.5, "modified-hac": 6.4}}
    assert checks.modified_closer(theta, {1: 7.0}) == []
    assert checks.modified_closer(theta, {1: 1.2})


def _cli_outputs(tmp_path, workload="cli-bivariate", n_cycles=60):
    """fit and wald payloads of the real CLI on a small generated CSV."""
    import pvar.cli
    spec = workloads.CLI[workload]
    data = inputs.simulate(spec["phi"], spec["sigma"], n_cycles, spec["m"], seed=3)
    path = str(tmp_path / "series.csv")
    inputs.write_csv(path, data)
    payloads = {}
    for kind, argv in workloads.cli_argv(workload, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert pvar.cli.main(argv) == 0
        payloads[kind] = json.loads(out.getvalue())
    return data, payloads


def test_cli_checks_accept_the_program_and_reject_tampering(tmp_path):
    spec = workloads.CLI["cli-bivariate"]
    data, out = _cli_outputs(tmp_path)
    reference = inputs.ols_reference(data, len(spec["phi"]), spec["order"])
    restricted = spec["restricted"]
    tol = workloads.CLI_TOL
    assert checks.fit_matches_reference(out["fit"], reference, tol) == []
    assert checks.wald_matches_fit(out["wald"], out["fit"], restricted, tol) == []

    for field in ("estimate", "se"):
        fit = copy.deepcopy(out["fit"])
        coef = fit["seasons"][2]["coefficients"][1]
        if field == "estimate":
            coef["estimate"] *= 1 + 1e-6
        else:
            coef["std_errors"]["strong"] *= 1 + 1e-6
        assert checks.fit_matches_reference(fit, reference, tol)
    fit = copy.deepcopy(out["fit"])
    del fit["seasons"][0]["coefficients"][0]
    assert checks.fit_matches_reference(fit, reference, tol)

    for key, factor in (("statistic", 1 + 1e-6), ("p_value", 1 + 1e-6), ("df", 2)):
        wald = copy.deepcopy(out["wald"])
        test = next(t for t in wald["tests"] if t["method"] == "strong")
        test[key] = test[key] * factor
        assert checks.wald_matches_fit(wald, out["fit"], restricted, tol)
    wald = copy.deepcopy(out["wald"])
    wald["tests"].pop()
    assert checks.wald_matches_fit(wald, out["fit"], restricted, tol)


def test_wide_cli_checks_accept_the_program(tmp_path):
    spec = workloads.CLI["cli-wide"]
    data, out = _cli_outputs(tmp_path, "cli-wide", n_cycles=120)
    reference = inputs.ols_reference(data, len(spec["phi"]), spec["order"])
    assert checks.fit_matches_reference(out["fit"], reference, workloads.CLI_TOL) == []
    assert checks.wald_matches_fit(out["wald"], out["fit"], spec["restricted"],
                                   workloads.CLI_TOL) == []


def test_output_checks_reject_drift_and_garbage():
    assert checks.deterministic([b"a", b"a"], "fit") == []
    assert checks.deterministic([b"a", b"b"], "fit")
    assert checks.parse_json(b'{"x": 1}', "fit") == ({"x": 1}, [])
    payload, problems = checks.parse_json(b"Traceback", "fit")
    assert payload is None and problems


# ---------------------------------------------------------------------------
# references


def test_lyapunov_matches_the_scalar_closed_form():
    phi, sigma = 0.6, 2.0
    theta = inputs.lyapunov_theta_strong([[[phi]]], [[[sigma]]])
    gamma = sigma / (1 - phi ** 2)
    assert theta[0][0, 0] == pytest.approx(sigma / gamma, rel=1e-12)


def test_two_season_lyapunov_matches_direct_variances():
    # season 1: y = a x_prev + e1; season 2: x = b y + e2 (scalar)
    a, b, s1, s2 = 0.9, 0.5, 1.0, 2.0
    var_x = (b ** 2 * s1 + s2) / (1 - a ** 2 * b ** 2)
    var_y = a ** 2 * var_x + s1
    theta = inputs.lyapunov_theta_strong([[[a]], [[b]]], [[[s1]], [[s2]]])
    assert theta[0][0, 0] == pytest.approx(s1 / var_x, rel=1e-12)
    assert theta[1][0, 0] == pytest.approx(s2 / var_y, rel=1e-12)


def test_inputs_depend_only_on_the_seed():
    spec = workloads.CLI["cli-bivariate"]
    a = inputs.simulate(spec["phi"], spec["sigma"], 30, 1, seed=5)
    b = inputs.simulate(spec["phi"], spec["sigma"], 30, 1, seed=5)
    c = inputs.simulate(spec["phi"], spec["sigma"], 30, 1, seed=6)
    assert np.array_equal(a, b) and not np.array_equal(a, c)
    for phi in inputs.WIDE_PHI:
        assert np.abs(np.hstack(phi)).sum(axis=1).max() < 1


# ---------------------------------------------------------------------------
# timing and spans


def test_speed_scale_uses_the_kernel_times_around_each_operation():
    scale = workloads.SpeedScale("small")
    assert scale.last > 0
    kernel = iter([0.025, 0.0125])
    scale.kernel = lambda: next(kernel)
    scale.last = 0.05
    assert scale.factor() == pytest.approx(scale.ref / 0.0375)
    assert scale.factor() == pytest.approx(scale.ref / 0.01875)
    assert len(scale.factors) == 2
    assert workloads.SpeedScale("blas").last > 0


def test_self_times_on_a_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],      # child of root
        ["b", 2.0, 3.0, 1],      # child of a
        ["a", 3.5, 6.0, 0],      # overlaps the first a by 0.5
        ["c", 9.0, 12.0, 0],     # runs past root's end: clipped to 1.0
    ]
    self_s = spans.self_times(tree)
    assert self_s["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_s["a"] == pytest.approx((3.0 - 1.0) + 2.5)
    assert self_s["b"] == pytest.approx(1.0)
    assert self_s["c"] == pytest.approx(3.0)
    assert spans.call_counts(tree) == {"root": 1, "a": 2, "b": 1, "c": 1}


def test_tracer_records_parents_and_restores_the_package():
    import pvar.lrv
    import pvar.mc
    ticks = iter(range(1000))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    original = pvar.mc.psi_hac
    W = np.random.default_rng(0).standard_normal((50, 2))
    with tracer.installed("pvar", workloads.SPAN_TARGETS, workloads.COUNTERS):
        assert pvar.mc.psi_hac is not original
        with tracer.span("outer"):
            pvar.mc.psi_hac(W, pvar.lrv.KernelSpec("bartlett", 0.25))
    assert pvar.mc.psi_hac is original and pvar.lrv.psi_hac is original
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("outer", -1), ("lrv.psi_hac", 0)]
    assert tracer.counts == {"lrv.hac_lags": 4}          # lags 0..3
    assert all(end > start for _, start, end, _ in tracer.spans)


# ---------------------------------------------------------------------------
# the command and its configuration


def test_benchmark_json_matches_the_metrics():
    config = _config()
    assert config["command"] == ["python3", "bench/run.py"]
    assert config["paths"] == ["bench"]
    assert [w["name"] for w in config["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == workloads.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in config["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    config = _config()
    proc = subprocess.run([sys.executable, RUN, "--workload", "cli-bivariate",
                           "--seed", "4", "--seconds", "0.1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2 * workloads.CLI_MIN_ROUNDS
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in config[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(workloads.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc-size-weak",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
