"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

These tests are slow (several minutes of Monte Carlo in total).  Each
one prints exactly one line of the form "ACCEPTANCE <k>: PASS|FAIL ..."
before asserting, so the verdicts survive in captured output.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
from scipy.integrate import quad

import pvar.analytic as an
from pvar.estimate import ConstraintSpec, fit_constrained, fit_ols
from pvar.infer import Restriction, chisq_sf, normal_sf, wald
from pvar.linalg import vec
from pvar.lrv import (KernelSpec, lambda_hat, omega_hat, psi_hac,
                      psi_spectral, score_series, theta_sandwich)
from pvar.mc import Scenario, preset, run_scenario
from pvar.model import PvarModel
from pvar.noise import NoiseSpec, simulate
from pvar.oracle import exact_covariances

CLI = [sys.executable, "-m", "pvar.cli"]

SIZE_BANDS = {0.01: (0.3, 1.9), 0.05: (3.3, 6.9), 0.10: (7.6, 12.5)}

# Published diagonals of the closed-form example covariances; only
# acceptance 1 checks them (see pvar.analytic for their gap to the DGP).
THETA_S_TABLE = {1: (0.84, 1.40, 2.68, 4.46), 2: (0.69, 0.34, 0.38, 0.19)}
THETA_TABLE = {
    1: {1: (1.79, 1.40, 2.68, 12.42), 2: (3.23, 1.79, 0.56, 2.71)},
    2: {1: (2.48, 1.40, 2.68, 13.32), 2: (9.72, 1.79, 0.56, 8.13)},
}


def _verdict(k, failures, capsys, extra=""):
    tag = "PASS" if not failures else "FAIL"
    detail = f" ({len(failures)} deviation(s))" if failures else ""
    with capsys.disabled():
        print(f"\nACCEPTANCE {k}: {tag}{detail}{extra}")
    assert not failures, "; ".join(failures)


def _run_cli(args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


# ---------------------------------------------------------------------------
# 1. closed-form tables via the CLI, each entry within 0.01, under 1 s


def test_acceptance_1_analytic_tables(capsys):
    failures = []
    t0 = time.perf_counter()
    for m in (1, 2):
        proc = _run_cli(["analytic", "--m", str(m), "--format", "json"])
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        for v in (1, 2):
            got_s = payload["theta_s"][str(v)]
            got = payload["theta"][str(v)]
            for i in range(4):
                if abs(got_s[i] - THETA_S_TABLE[v][i]) > 0.01:
                    failures.append(
                        f"theta_s({v})[{i}] m={m}: {got_s[i]:.4f} "
                        f"vs {THETA_S_TABLE[v][i]}")
                if abs(got[i] - THETA_TABLE[m][v][i]) > 0.01:
                    failures.append(
                        f"theta({v})[{i}] m={m}: {got[i]:.4f} "
                        f"vs {THETA_TABLE[m][v][i]}")
    wall = time.perf_counter() - t0
    if wall >= 2.0:  # two invocations, 1 s budget each
        failures.append(f"runtime {wall:.2f}s")
    _verdict(1, failures, capsys)


# ---------------------------------------------------------------------------
# 2. Monte Carlo averages of the estimated covariances vs the exact
#    covariances of the simulated process
#    (weak product noise, m = 2, N = 4000, 200 replications)


def test_acceptance_2_oracle_vs_estimator(capsys):
    """Estimator means against pvar.oracle, not the published tables.

    The tables of acceptance 1 are not the covariances of the process
    noise.py draws: Omega(2) of channel 1 is 1.6634, not 1.4535, and
    the cross entries of Theta equal their Theta_S values because the
    two channels are independent (Theta(2)[1] is 0.301, not 1.79).
    """
    model, noise = an.example_model(m=2)
    exact = exact_covariances(model, noise)
    scenario = Scenario(name="example-m2", model=model, noise=noise,
                        n_cycles=4000, reps=200)
    report = run_scenario(scenario)
    failures = []
    for v in (1, 2):
        theta_s = np.diag(exact.theta_s[v - 1])
        theta = np.diag(exact.theta[v - 1])
        for i in range(4):
            target_s = theta_s[i]
            got = report.theta_mean[(v, "standard", i)]
            if abs(got - target_s) > 0.10 * target_s:
                failures.append(
                    f"standard({v})[{i}]: {got:.3f} vs {target_s:.3f} (10%)")
            target = theta[i]
            for meth in ("modified-sp", "modified-hac"):
                got = report.theta_mean[(v, meth, i)]
                if abs(got - target) > 0.15 * target:
                    failures.append(
                        f"{meth}({v})[{i}]: {got:.3f} vs {target:.3f} (15%)")
    if report.wall_time >= 300:
        failures.append(f"runtime {report.wall_time:.0f}s")
    _verdict(2, failures, capsys, extra=f" [{report.wall_time:.0f}s]")


# ---------------------------------------------------------------------------
# 3. empirical size: strong-noise bands, weak-noise standard-test blowup,
#    weak-noise modified bands


def _band_check(report, method, label, failures):
    for level, (lo, hi) in SIZE_BANDS.items():
        freqs = [100 * report.rejection[(v, method, level)]
                 for v in range(1, 6)]
        inside = sum(lo <= f <= hi for f in freqs)
        if inside < 4:
            failures.append(
                f"{label} {method} @{level:.0%}: "
                f"{[round(f, 1) for f in freqs]} only {inside}/5 in "
                f"[{lo},{hi}]")


def test_acceptance_3_empirical_size(capsys):
    """Known failure: model-II modified tests miss their bands.

    model-I and the model-II standard-test blow-up pass.  The misses
    are the model-II modified tests, driven by seasons 1 and 5:
    modified-sp rejects [7.4, 5.6, 5.5, 5.8, 7.9]% at 5%.  With the
    same seeds (N = 1000, 1000 replications):

    - the lag-0 White sandwich, the exact form of Psi here because the
      scores are martingale differences, rejects [7.5, 5.5, 5.3, 5.7,
      8.0]% at 5%, so the excess is not in the HAC or spectral code;
    - the infeasible test with the exact Theta(v)[3,3] of pvar.oracle
      lands in every band at every level: [1.0, 0.9, 0.6, 1.2, 0.7]%,
      [6.2, 3.9, 3.8, 4.0, 4.4]% and [10.8, 8.1, 7.8, 8.7, 8.9]%;
    - at N = 4000 with 400 replications (Monte Carlo standard error
      about 1.1 points) White, modified-sp and modified-hac reject
      3.0-6.8% at 5% in every season, season 1 at 6.8, 6.8 and 6.5%.

    Estimating Psi under m = 2 product noise costs size at N = 1000,
    most in seasons 1 and 5, where regressor and error are both nearly
    pure channel-2 products (Sigma(5) is diagonal, Sigma(1)_12 = 0.05).
    Whether the source paper's Model II used m = 2, or reached these
    bands at N = 1000, is not in the repository, so the bands stay.
    """
    failures = []
    strong = run_scenario(preset("model-I", reps=1000))
    _band_check(strong, "modified-sp", "model-I", failures)
    _band_check(strong, "modified-hac", "model-I", failures)
    weak = run_scenario(preset("model-II", reps=1000))
    for v in range(1, 6):
        freq = weak.rejection[(v, "standard", 0.05)]
        if freq < 0.30:
            failures.append(f"model-II standard @5% season {v}: {freq:.1%}")
    _band_check(weak, "modified-sp", "model-II", failures)
    _band_check(weak, "modified-hac", "model-II", failures)
    wall = strong.wall_time + weak.wall_time
    if wall >= 900:
        failures.append(f"runtime {wall:.0f}s")
    _verdict(3, failures, capsys, extra=f" [{wall:.0f}s]")


# ---------------------------------------------------------------------------
# 4. empirical power at the 5% level (strong noise, N = 4000)


def test_acceptance_4_empirical_power(capsys):
    report = run_scenario(preset("model-III", reps=1000))
    failures = []
    for method in ("standard", "modified-sp", "modified-hac"):
        for v in range(1, 6):
            freq = report.rejection[(v, method, 0.05)]
            floor = 0.99 if v == 2 else 0.60
            if freq < floor:
                failures.append(
                    f"{method} season {v}: {freq:.1%} < {floor:.0%}")
    _verdict(4, failures, capsys, extra=f" [{report.wall_time:.0f}s]")


# ---------------------------------------------------------------------------
# 5. property identities at their stated tolerances


def test_acceptance_5_property_suite(capsys):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(5)

    def check(name, err, tol):
        if not err <= tol:
            failures.append(f"{name}: {err:.3e} > {tol:.0e}")

    # vec / kron algebra
    A = rng.normal(size=(3, 4))
    B = rng.normal(size=(4, 5))
    C = rng.normal(size=(5, 3))
    check("vec(ABC) = (C' x A) vec(B)",
          np.max(np.abs(vec(A @ B @ C) - np.kron(C.T, A) @ vec(B))), 1e-12)
    check("kron mixed product",
          np.max(np.abs(np.kron(A @ B, C.T @ B.T) -
                        np.kron(A, C.T) @ np.kron(B, B.T))), 1e-12)

    # score-lag identities on a fitted weak PVAR
    model, noise = an.example_model(m=1)
    series = simulate(model, 500, noise, seed=55)
    fit = fit_ols(series, [1, 1], demean=False)
    W = score_series(fit.X[0], fit.residuals[0])
    N = W.shape[0]
    check("lambda transpose symmetry",
          np.max(np.abs(lambda_hat(W, -3) - lambda_hat(W, 3).T)), 0.0)
    total = sum(lambda_hat(W, h) for h in range(-(N - 1), N))
    check("full-lag sum",
          np.linalg.norm(total),
          1e-8 * np.linalg.norm(lambda_hat(W, 0)))
    check("psi_spectral(r=0) = lambda_0",
          np.max(np.abs(psi_spectral(W, r=0) - lambda_hat(W, 0))), 0.0)
    check("psi_hac(T=0) = lambda_0",
          np.max(np.abs(psi_hac(W, KernelSpec("bartlett", 2.0)) -
                        lambda_hat(W, 0))), 0.0)

    # Wald invariance and t^2 identity
    beta = vec(fit.B_hat[0])
    theta = theta_sandwich(omega_hat(fit.X[0]), psi_spectral(W), 2)
    rest = Restriction.coordinates([1, 3], 4)
    base = wald(beta, theta, N, rest)
    T = np.array([[2.0, -1.0], [0.5, 3.0]])
    twisted = wald(beta, theta, N,
                   Restriction(T @ rest.R0, T @ rest.r0))
    check("Wald transform invariance",
          abs(base.p_value - twisted.p_value), 1e-10)
    single = Restriction.coordinates([3], 4)
    w1 = wald(beta, theta, N, single)
    tstat = abs(beta[3]) / np.sqrt(theta[3, 3] / N)
    check("t^2 - Wald p identity",
          abs(w1.p_value - 2 * normal_sf(tstat)), 1e-10)

    # identity constraint reproduces the unconstrained fit
    cons = [ConstraintSpec.identity(4), ConstraintSpec.identity(4)]
    cfit = fit_constrained(series, [1, 1], cons, demean=False)
    err = max(np.max(np.abs(cfit.B_hat[v] - fit.B_hat[v])) for v in (0, 1))
    check("identity constraint = OLS", err, 1e-8)

    # s = 1 periodic fit equals a plain VAR least-squares computation
    var1 = PvarModel(s=1, d=2, phi=[[np.array([[0.5, 0.1], [0.0, 0.3]])]],
                     sigma=[np.eye(2)])
    ser1 = simulate(var1, 400, NoiseSpec("strong"), seed=9)
    f1 = fit_ols(ser1, [1], demean=False)
    Y = ser1.data
    Xp = np.vstack([ser1.presample, Y[:-1]]).T
    Zp = Y.T
    Bp = Zp @ Xp.T @ np.linalg.inv(Xp @ Xp.T)
    check("s=1 reduction", np.max(np.abs(f1.B_hat[0] - Bp)), 1e-12)

    # tail probabilities vs quadrature
    for x, df in ((1.3, 1), (4.7, 3), (11.0, 6)):
        ref = quad(lambda u: u ** (df / 2 - 1) * np.exp(-u / 2),
                   x, np.inf)[0] / (2 ** (df / 2) * math.gamma(df / 2))
        check(f"chisq_sf({x},{df})", abs(chisq_sf(x, df) - ref), 1e-8)
    for x in (0.5, 1.96, 3.5):
        ref = quad(lambda u: np.exp(-u * u / 2) / np.sqrt(2 * np.pi),
                   x, np.inf)[0]
        check(f"normal_sf({x})", abs(normal_sf(x) - ref), 1e-8)

    wall = time.perf_counter() - t0
    if wall >= 30:
        failures.append(f"runtime {wall:.1f}s")
    _verdict(5, failures, capsys)


# ---------------------------------------------------------------------------
# 6. byte-identical reruns of every machine-readable command


def test_acceptance_6_determinism(tmp_path, capsys):
    model_text = (
        "s = 2\nd = 2\n"
        "[season 1]\np = 1\nphi1 = 0.3 0 ; 0 -0.6\nsigma = 1.5 0 ; 0 2.5\n"
        "[season 2]\np = 1\nphi1 = -0.7 0 ; 0 0.15\nsigma = 1 0 ; 0 0.5\n")
    model_file = tmp_path / "model.txt"
    model_file.write_text(model_text)
    data_file = tmp_path / "data.csv"

    def run_twice(args):
        a = _run_cli(args)
        b = _run_cli(args)
        assert a.returncode == 0, a.stderr
        return a.stdout.encode(), b.stdout.encode()

    failures = []
    sim_args = ["simulate", "--model", str(model_file), "--n", "60",
                "--noise", "weak-product", "--m", "2", "--seed", "11"]
    a, b = run_twice(sim_args)
    if a != b:
        failures.append("simulate output differs between reruns")
    data_file.write_bytes(a)

    for args in (
        ["fit", "--data", str(data_file), "--s", "2", "--format", "json"],
        ["wald", "--data", str(data_file), "--s", "2",
         "--restrict", "phi[1](2,2)=0", "--format", "json"],
        ["analytic", "--m", "2", "--format", "json"],
        ["mc", "--scenario", "model-I", "--reps", "4", "--n", "80",
         "--format", "json"],
    ):
        a, b = run_twice(args)
        if a != b:
            failures.append(f"{args[0]} output differs between reruns")
    _verdict(6, failures, capsys)
