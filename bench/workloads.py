"""Workloads, timed loops and metrics of the benchmark (entry: run.py).

mc-size-weak calls pvar.mc.run_scenario in this process on batches of
model-II replications.  The CLI workloads spawn `python -m pvar.cli`
one call after another (a closed loop with one client) on a CSV the
benchmark generates.  A traced run (--trace 1) wraps the package's
public functions from outside, runs the same operations in this
process, and reports self time and counts per operation.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import inputs
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

END_TO_END = {"setup_s": "s", "reps_per_s": "1/s", "call_s": "s",
              "peak_rss_mb": "MB"}

#: Self times are seconds per operation and counts are per operation;
#: an operation is one replication on mc-size-weak and one call on the
#: CLI workloads.
PER_LAYER = {
    "noise.simulate_s": "s", "noise.gen_noise_s": "s", "noise.steps": "count",
    "model.require_causal_s": "s",
    "estimate.build_design_s": "s", "estimate.fit_ols_s": "s",
    "lrv.select_ar_order_aic_s": "s", "lrv.aic_fits": "count",
    "lrv.psi_spectral_s": "s", "lrv.psi_hac_s": "s", "lrv.hac_lags": "count",
    "lrv.score_series_s": "s", "lrv.omega_hat_s": "s",
    "lrv.theta_sandwich_s": "s",
    "linalg.solve_guarded_calls": "count", "linalg.solve_guarded_s": "s",
    "infer.wald_calls": "count", "infer.wald_s": "s", "infer.t_report_s": "s",
    "mc.run_scenario_self_s": "s",
    "cli.import_s": "s", "cli.read_csv_s": "s", "cli.main_self_s": "s",
    "trace.spans": "count", "trace.overhead_s": "s", "trace.overhead_pct": "%",
}

#: (span name, defining module, function) of every traced function.
SPAN_TARGETS = [
    ("noise.simulate", "pvar.noise", "simulate"),
    ("noise.gen_noise", "pvar.noise", "gen_noise"),
    ("model.require_causal", "pvar.model", "require_causal"),
    ("estimate.build_design", "pvar.estimate", "build_design"),
    ("estimate.fit_ols", "pvar.estimate", "fit_ols"),
    ("lrv.select_ar_order_aic", "pvar.lrv", "select_ar_order_aic"),
    ("lrv.psi_spectral", "pvar.lrv", "psi_spectral"),
    ("lrv.psi_hac", "pvar.lrv", "psi_hac"),
    ("lrv.score_series", "pvar.lrv", "score_series"),
    ("lrv.omega_hat", "pvar.lrv", "omega_hat"),
    ("lrv.theta_sandwich", "pvar.lrv", "theta_sandwich"),
    ("linalg.solve_guarded", "pvar.linalg", "solve_guarded"),
    ("infer.wald", "pvar.infer", "wald"),
    ("infer.t_report", "pvar.infer", "t_report"),
    ("cli.read_csv", "pvar.cli", "read_csv"),
]

#: (counter, module, function, parent span, amount of the result).
#: noise.steps counts the innovation rows drawn, burn-in included: one
#: per step of the simulation recursion.
COUNTERS = [
    ("noise.steps", "pvar.noise", "gen_noise", "noise.simulate", len),
    ("lrv.hac_lags", "pvar.lrv", "lambda_hat", "lrv.psi_hac", None),
    ("lrv.aic_fits", "pvar.lrv", "_var_fit", "lrv.select_ar_order_aic", None),
]

SPAN_METRICS = {
    "noise.simulate_s": "noise.simulate", "noise.gen_noise_s": "noise.gen_noise",
    "model.require_causal_s": "model.require_causal",
    "estimate.build_design_s": "estimate.build_design",
    "estimate.fit_ols_s": "estimate.fit_ols",
    "lrv.select_ar_order_aic_s": "lrv.select_ar_order_aic",
    "lrv.psi_spectral_s": "lrv.psi_spectral", "lrv.psi_hac_s": "lrv.psi_hac",
    "lrv.score_series_s": "lrv.score_series", "lrv.omega_hat_s": "lrv.omega_hat",
    "lrv.theta_sandwich_s": "lrv.theta_sandwich",
    "linalg.solve_guarded_s": "linalg.solve_guarded",
    "infer.wald_s": "infer.wald", "infer.t_report_s": "infer.t_report",
    "mc.run_scenario_self_s": "mc.run_scenario",
    "cli.read_csv_s": "cli.read_csv", "cli.main_self_s": "cli.main",
}
CALL_METRICS = {"linalg.solve_guarded_calls": "linalg.solve_guarded",
                "infer.wald_calls": "infer.wald"}

MC_PRESET = "model-II"
MC_BATCH = 10           # replications per run_scenario call
MC_MIN_REPS = 200       # the statistical checks need at least this many
CLI_MIN_ROUNDS = 3
SETUP_PROBES = 5
IMPORT_PROBES = 3

# Check tolerances.  Standard errors are Monte Carlo ones from this run.
COEF_SE = 5.0           # coefficient means vs the true Phi
# Standard Theta means vs the Lyapunov value: 4 standard errors plus 5%.
# Inverting a sample second moment biases Omega^-1 upward by O(1/N),
# more so the heavier the noise's tails: under m=2 product noise at
# N=1000 that is 2-4% (3.6% on the worst entry over 900 replications).
THETA_SE = 4.0
THETA_REL = 0.05
REJECT_MARGIN = 0.15    # standard over modified 5% rejection rate; seen >= 0.31
CLI_TOL = 1e-9          # relative, CLI answers vs lstsq and identities

CLI = {
    "cli-bivariate": {"phi": inputs.BIVARIATE_PHI, "sigma": inputs.BIVARIATE_SIGMA,
                      "n_cycles": 520, "m": 1, "order": 1,
                      "restricted": {1: (1, 2, 2), 3: (1, 2, 2), 5: (1, 2, 2)}},
    "cli-wide": {"phi": inputs.WIDE_PHI, "sigma": inputs.WIDE_SIGMA,
                 "n_cycles": 4000, "m": 1, "order": 2,
                 "restricted": {1: (1, 2, 2), 2: (1, 2, 2), 4: (2, 2, 2)}},
}
WORKLOADS = ("mc-size-weak",) + tuple(CLI)


# ---------------------------------------------------------------------------
# machine speed

#: Calibration kernel of each workload.  A slow spell of the CPU slows
#: interpreter work and small numpy calls more than mid-size matrix
#: products, so each workload's kernel mixes the kinds of work its
#: operations do.  Fitted on 196 alternations of kernels and operations,
#: log(operation time) rose 1.07 times as fast as log(kernel time) for a
#: replication batch against "small" and 1.03 times for the cli-wide fit
#: against "blas"; the wide fit against "small" gave 0.72.
KERNELS = {"mc-size-weak": "small", "cli-bivariate": "small", "cli-wide": "blas"}

#: Reference kernel times: a scaled time is the time the operation takes
#: when its kernel takes this long.
CAL_REF_S = {"small": 0.025, "blas": 0.020}


def pin_one_cpu():
    """Run this process and its children on one CPU; returns it or None.

    Each virtual CPU changes speed on its own, so the calibration kernel
    only tracks an operation that runs on the same CPU.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class SpeedScale:
    """Scales operation times to a reference machine speed.

    The speed of a shared virtual CPU can change twofold within seconds,
    which would swamp any change in the program.  A calibration kernel
    runs between consecutive operations.  An operation's factor is the
    kind's reference time over the mean of the kernel times just before
    and after it, and its scaled time is its wall time times the factor.
    """

    def __init__(self, kind):
        self.ref = CAL_REF_S[kind]
        self.kernel = {"small": self._small, "blas": self._blas}[kind]
        self._a = np.eye(4) * 2.0 + 0.25
        if kind == "blas":
            self._c = np.random.default_rng(0).standard_normal((4000, 120))
        self.last = self.kernel()
        self.factors = []

    @staticmethod
    def _loop():
        x = 0
        for i in range(100000):
            x += i * i

    def _small(self):
        """Seconds for interpreter work plus 4x4 numpy solves (~30 ms)."""
        t0 = time.perf_counter()
        self._loop()
        for _ in range(2000):
            np.linalg.solve(self._a, self._a @ self._a[0])
        return time.perf_counter() - t0

    def _blas(self):
        """Seconds for interpreter work plus 4000x120 Gram products (~20 ms)."""
        t0 = time.perf_counter()
        self._loop()
        for _ in range(5):
            self._c.T @ self._c
        return time.perf_counter() - t0

    def factor(self):
        """Call right after an operation; returns its factor."""
        k = self.kernel()
        f = self.ref / ((self.last + k) / 2.0)
        self.last = k
        self.factors.append(f)
        return f


# ---------------------------------------------------------------------------
# set-up


def setup(workload, seed, csv_path):
    """Import pvar and build the workload's inputs from the seed."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import pvar.mc
    if workload == "mc-size-weak":
        first = int(np.random.default_rng([seed, 1]).integers(0, 2 ** 40))
        # base seeds are multiples of 64 > MC_BATCH, so replication r of
        # batch k, seeded base ^ r, never repeats another's seed
        return {"model": pvar.mc.preset(MC_PRESET).model,
                "base_seed": lambda k: (first + k) * 64}
    spec = CLI[workload]
    data = inputs.simulate(spec["phi"], spec["sigma"], spec["n_cycles"],
                           spec["m"], seed)
    inputs.write_csv(csv_path, data)
    return {"data": data, "csv": csv_path}


def _probe(code):
    """Wall time of a fresh interpreter running code, spawn to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()}")
    return elapsed, proc.stdout


def time_setup(workload, seed):
    """Median (raw, scaled) time from a fresh interpreter to built inputs."""
    scale = SpeedScale("small")
    raw, scaled = [], []
    for k in range(SETUP_PROBES):
        path = os.path.join(OUT, f"probe-{os.getpid()}-{k}.csv")
        code = (f"import sys; sys.path[:0] = [{BENCH!r}]; import workloads; "
                f"workloads.setup({workload!r}, {seed}, {path!r})")
        raw.append(_probe(code)[0])
        scaled.append(raw[-1] * scale.factor())
        if os.path.exists(path):
            os.remove(path)
    return statistics.median(raw), statistics.median(scaled)


def time_cli_import():
    """Median scaled import time of pvar.cli in a fresh interpreter."""
    scale = SpeedScale("small")
    code = (f"import sys, time; sys.path.insert(0, {SRC!r}); "
            f"t = time.perf_counter(); import pvar.cli; "
            f"print(time.perf_counter() - t)")
    return statistics.median(float(_probe(code)[1]) * scale.factor()
                             for _ in range(IMPORT_PROBES))


# ---------------------------------------------------------------------------
# mc-size-weak


def run_mc(inp, seconds, tracer):
    """Replication batches until the time is up; returns the record.

    Times are wall times of run_scenario calls and their scaled values.
    With a tracer, batches alternate untraced and traced, so the run
    measures its own tracing overhead.
    """
    from pvar.mc import preset, run_scenario

    run_scenario(preset(MC_PRESET, reps=1))          # warm-up, not counted
    scale = SpeedScale(KERNELS["mc-size-weak"])
    record = {"reports": [], "raw": [], "scaled": [], "traced_scaled": [],
              "traced_factors": []}
    start = time.perf_counter()
    k = 0
    while True:
        sc = preset(MC_PRESET, reps=MC_BATCH, base_seed=inp["base_seed"](k))
        traced = tracer is not None and k % 2 == 1
        if traced:
            with tracer.installed("pvar", SPAN_TARGETS, COUNTERS):
                t0 = time.perf_counter()
                with tracer.span("mc.run_scenario"):
                    report = run_scenario(sc)
                elapsed = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            report = run_scenario(sc)
            elapsed = time.perf_counter() - t0
        f = scale.factor()
        if traced:
            record["traced_scaled"].append(elapsed * f)
            record["traced_factors"].append(f)
        else:
            record["raw"].append(elapsed)
            record["scaled"].append(elapsed * f)
        record["reports"].append(report)
        k += 1
        done = sum(r.reps for r in record["reports"])
        if (time.perf_counter() - start >= seconds and done >= MC_MIN_REPS
                and (tracer is None or len(record["traced_scaled"]) >= 2)):
            break
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["speed"] = statistics.median(scale.factors)
    return record


def _vec_index(i, d):
    """(row, col) of entry i of vec(Phi) for a d x d lag-1 matrix."""
    return i % d, i // d


def mc_checks(record, model):
    """Check the pooled replications against the model and the theory."""
    reports = record["reports"]
    failures = sum(r.failures for r in reports)
    problems = checks.no_failed_replications(failures)
    done = [r for r in reports if r.completed]
    R = sum(r.completed for r in done)
    if not R:
        return problems
    s, d = model.s, model.d
    true = {(v, i): float(model.phi[v - 1][0][_vec_index(i, d)])
            for v in range(1, s + 1) for i in range(d * d)}
    mean, se = {}, {}
    for key in true:
        m1 = sum(r.completed * r.coef_mean[key] for r in done) / R
        m2 = sum(r.completed * (r.coef_var[key] + r.coef_mean[key] ** 2)
                 for r in done) / R
        mean[key] = m1
        se[key] = math.sqrt(max(m2 - m1 * m1, 0.0) / R)
    problems += checks.coefficient_means(mean, se, true, COEF_SE)

    exact = inputs.lyapunov_theta_strong([model.phi[v][0] for v in range(s)],
                                         model.sigma)
    theta_mean, theta_se, exact_diag = {}, {}, {}
    for v in range(1, s + 1):
        for i in range(d * d):
            batch = [r.theta_mean[(v, "standard", i)] for r in done]
            theta_mean[(v, i)] = sum(r.completed * b for r, b in zip(done, batch)) / R
            theta_se[(v, i)] = statistics.stdev(batch) / math.sqrt(len(batch))
            exact_diag[(v, i)] = float(exact[v - 1][i, i])
    problems += checks.standard_theta_means(theta_mean, theta_se, exact_diag,
                                            THETA_SE, THETA_REL)

    methods = sorted({k[1] for k in done[0].rejection})
    rates = {v: {m: sum(r.completed * r.rejection[(v, m, 0.05)] for r in done) / R
                 for m in methods} for v in range(1, s + 1)}
    problems += checks.over_rejection(rates, REJECT_MARGIN)

    phi22 = d * d - 1
    theta22 = {v: {m: sum(r.completed * r.theta_mean[(v, m, phi22)] for r in done) / R
                   for m in methods} for v in range(1, s + 1)}
    nmse = {v: sum(r.completed * r.coef_sse[(v, phi22)] for r in done) / R
            for v in range(1, s + 1)}
    problems += checks.modified_closer(theta22, nmse)
    record["summary"] = {"replications": R, "rejection_5pct": rates,
                         "phi22_theta": theta22, "phi22_n_mse": nmse}
    return problems


# ---------------------------------------------------------------------------
# CLI workloads


def cli_argv(workload, csv_path):
    spec = CLI[workload]
    s = len(spec["phi"])
    common = ["--data", csv_path, "--s", str(s), "--order", str(spec["order"]),
              "--cov", "strong,sp,hac", "--format", "json"]
    restrict = []
    for season, (lag, row, col) in sorted(spec["restricted"].items()):
        restrict += ["--restrict", f"phi[{season},{lag}]({row},{col})=0"]
    return [("fit", ["fit"] + common), ("wald", ["wald"] + common + restrict)]


def spawn_cli(argv, tag):
    """Run `python -m pvar.cli argv`: (seconds, peak RSS MB, code, stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out_path = os.path.join(OUT, f"call-{os.getpid()}-{tag}.out")
    err_path = os.path.join(OUT, f"call-{os.getpid()}-{tag}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "pvar.cli"] + argv,
                                stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    os.remove(out_path)
    os.remove(err_path)
    if proc.returncode:
        sys.stderr.write(f"{' '.join(argv[:1])} exited {proc.returncode}: "
                         f"{stderr.decode(errors='replace').strip()}\n")
    return elapsed, usage.ru_maxrss / 1024, proc.returncode, stdout


def call_in_process(argv):
    """pvar.cli.main(argv) in this process: (seconds, code, stdout)."""
    import pvar.cli
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pvar.cli.main(argv)
    return time.perf_counter() - t0, code, out.getvalue().encode()


def run_cli(workload, inp, seconds, tracer):
    """Rounds of one fit and one wald call until the time is up.

    Untraced, each call is a fresh process.  Traced, each call runs
    through pvar.cli.main in this process, once untraced and once
    traced, so the run measures its own tracing overhead.  A round's
    time is the mean of its calls' times.
    """
    calls = cli_argv(workload, inp["csv"])
    if tracer is None:
        spawn_cli(calls[0][1], "warm-up")
    else:
        call_in_process(calls[0][1])
    scale = SpeedScale(KERNELS[workload])
    record = {"raw": [], "scaled": [], "traced_scaled": [], "traced_factors": [],
              "rss_mb": [],
              "attempted": 0, "failed": 0, "stdout": {kind: [] for kind, _ in calls}}
    start = time.perf_counter()
    while True:
        raw, scaled, traced = [], [], []
        for kind, argv in calls:
            record["attempted"] += 1
            if tracer is None:
                elapsed, rss, code, stdout = spawn_cli(argv, kind)
                record["rss_mb"].append(rss)
            else:
                elapsed, code, stdout = call_in_process(argv)
            raw.append(elapsed)
            scaled.append(elapsed * scale.factor())
            if tracer is not None:
                with tracer.installed("pvar", SPAN_TARGETS, COUNTERS):
                    t0 = time.perf_counter()
                    with tracer.span("cli.main"):
                        _, traced_code, traced_out = call_in_process(argv)
                    elapsed = time.perf_counter() - t0
                traced.append(elapsed * scale.factor())
                record["traced_factors"].append(scale.factors[-1])
                code = code or traced_code
                if traced_out != stdout:
                    record["stdout"][kind].append(traced_out)
            if code:
                record["failed"] += 1
            else:
                record["stdout"][kind].append(stdout)
        record["raw"].append(statistics.mean(raw))
        record["scaled"].append(statistics.mean(scaled))
        if traced:
            record["traced_scaled"].append(statistics.mean(traced))
        if (time.perf_counter() - start >= seconds
                and len(record["raw"]) >= CLI_MIN_ROUNDS):
            break
    record["speed"] = statistics.median(scale.factors)
    record["peak_rss_mb"] = max(record["rss_mb"], default=0.0)
    return record


def cli_checks(workload, record, data):
    spec = CLI[workload]
    problems = []
    for kind, outs in record["stdout"].items():
        problems += checks.deterministic(outs, f"{workload} {kind}")
    if not record["stdout"]["fit"] or not record["stdout"]["wald"]:
        return problems + ["no successful fit and wald call to check"]
    fit, bad = checks.parse_json(record["stdout"]["fit"][0], "fit")
    problems += bad
    wald, bad = checks.parse_json(record["stdout"]["wald"][0], "wald")
    problems += bad
    if fit is None or wald is None:
        return problems
    reference = inputs.ols_reference(data, len(spec["phi"]), spec["order"])
    problems += checks.fit_matches_reference(fit, reference, CLI_TOL)
    problems += checks.wald_matches_fit(wald, fit, spec["restricted"], CLI_TOL)
    return problems


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(tracer, ops, factor):
    """Per-operation self times, scaled by factor, and counts."""
    self_s = spans.self_times(tracer.spans)
    calls = spans.call_counts(tracer.spans)
    out = {}
    for metric, name in SPAN_METRICS.items():
        out[metric] = self_s.get(name, 0.0) * factor / ops
    for metric, name in CALL_METRICS.items():
        out[metric] = calls.get(name, 0) / ops
    for counter, *_ in COUNTERS:
        out[counter] = tracer.counts.get(counter, 0) / ops
    out["trace.spans"] = len(tracer.spans) / ops
    return out


def overhead(untraced, traced):
    """Traced minus untraced median operation time, in s and percent."""
    base = statistics.median(untraced)
    extra = statistics.median(traced) - base
    return {"trace.overhead_s": extra, "trace.overhead_pct": 100.0 * extra / base}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "pvar")):
        print(f"error: no pvar package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    blas = {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}
    print(f"BLAS threads: {blas}")
    cpu = pin_one_cpu()
    print(f"pinned to CPU {cpu}")
    tracer = spans.Tracer() if args.trace else None

    setup_raw, setup_scaled = time_setup(args.workload, args.seed) if not tracer else (0, 0)
    csv_path = os.path.join(OUT, f"{args.workload}-{os.getpid()}.csv")
    inp = setup(args.workload, args.seed, csv_path)
    mc = args.workload == "mc-size-weak"
    try:
        if mc:
            record = run_mc(inp, args.seconds, tracer)
            problems = mc_checks(record, inp["model"])
            attempted = sum(r.reps for r in record["reports"])
            failed = sum(r.failures for r in record["reports"])
            ops, per_op = MC_BATCH * len(record["traced_scaled"]), MC_BATCH
        else:
            record = run_cli(args.workload, inp, args.seconds, tracer)
            problems = cli_checks(args.workload, record, inp["data"])
            attempted, failed = record["attempted"], record["failed"]
            ops, per_op = 2 * len(record["traced_scaled"]), 1
    finally:
        if os.path.exists(csv_path):
            os.remove(csv_path)

    if tracer:
        values = layer_metrics(tracer, ops, statistics.median(record["traced_factors"]))
        values["cli.import_s"] = time_cli_import()
        values.update(overhead([t / per_op for t in record["scaled"]],
                               [t / per_op for t in record["traced_scaled"]]))
        units = PER_LAYER
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        raw = None
    else:
        # Untraced, every operation is timed.  On mc a pass is a completed
        # replication; on the CLI workloads a round's time is the mean of
        # its calls, so one pass per round.
        passes = (sum(r.completed for r in record["reports"]) if mc
                  else len(record["raw"]))

        def e2e(setup_s, times):
            return {"setup_s": setup_s, "reps_per_s": passes / sum(times),
                    "call_s": statistics.median(times)}

        values = dict(e2e(setup_scaled, record["scaled"]),
                      peak_rss_mb=record["peak_rss_mb"])
        raw = e2e(setup_raw, record["raw"])
        units = END_TO_END
        print(f"speed factor {record['speed']:.4f}; unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in sorted(raw.items())))
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    for name, unit in units.items():
        print(f"{name:28s} {values[name]:.6g} {unit}")
    if "summary" in record:
        print(json.dumps({"summary": record["summary"]}, default=str))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, blas_threads=blas, seconds=args.seconds,
                       speed_factor=record["speed"], cpu=cpu,
                       unscaled=raw), fh, indent=1)
    print(json.dumps(result))
    return 0
