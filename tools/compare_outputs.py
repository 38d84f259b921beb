"""Check that two pvar source trees give byte-identical CLI output.

Usage: python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the pvar package, such as
the src/ of two checkouts.  Each call runs `python -m pvar.cli` once
per tree, with BLAS on one thread, and compares exit code, stdout and
stderr byte for byte, and the file a call's `--out` names (OUT_FILE),
which run() reads and deletes after each call:

- `mc --dump-scenarios`;
- `--help` of pvar and of each command;
- `analytic` as a table, CSV and JSON;
- seven calls that must fail (error_calls): `pvar` with no arguments,
  the unknown command `pvar fi`, `pvar fit` with no flags, a missing
  `--data` file, a model file without its `s` key, one whose `sigma` is
  1x1 where d = 2, and `mc --reps 0`;
- `mc --format json` on every preset the dump lists, at the CLI's
  default 1000 replications, and SEEDED_MC, 50 model-I replications
  from `--seed 0`, the least seed there is;
- `fit` and `wald` JSON on the series of the benchmark's cli-bivariate
  and cli-wide workloads (bench/inputs.py draws them, bench/workloads.py
  gives the arguments);
- the cli-bivariate `fit` under each other HAC kernel (KERNELS) at
  `--bandwidth 0.2`, once with that series on stdin, a pipe, as
  `--data /dev/stdin`, and once with `--out OUT_FILE`, whose bytes must
  be complete when the process ends;
- the cli-bivariate `fit` and `wald` under each covariance method
  alone (COV), and a `fit --cov hac` that must fail with exit 4, its
  `rect` kernel at `--bandwidth full` weighting every lag 1;
- the cli-bivariate `wald` of JOINT_RESTRICTIONS, tests of 3 and 2
  restrictions, the one call whose chi-squared tail has df > 1;
- the cli-bivariate `wald` of each text of RESTRICTION_FORMS alone: the
  square-bracket form, and an explicit lag with a nonzero target;
- the cli-wide `fit` under one method with the other's flag set far
  from its default (UNRELATED_FLAGS): `--cov sp --bandwidth 0.001` and
  `--cov hac --ar-order 100`;
- the cli-wide `fit --cov sp --ar-order 2`, a fixed order of the score
  autoregression;
- the cli-bivariate `fit` and `wald` at the per-season `--order`
  SEASON_ORDERS, which has an order-2 season and an order-0 season
  that no `--restrict` of the workload names;
- `simulate` CSV under every noise kind the presets use, of the same
  two models and of two more (simulate_models): one whose order exceeds
  its period, so simulate steps one cycle per block, and one with an
  order-0 season.

The calls run in that order.  Every call that differs is printed with
its first differing line, and so is every call that fails on OLD_SRC,
or one of error_calls that does not; the exit code is then 1.  It is 0
when every call matches.  A difference in `mc --dump-scenarios` ends
the run at once, as the mc calls run the presets that it lists.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import inputs  # noqa: E402
import workloads  # noqa: E402

DUMP = ["mc", "--dump-scenarios"]
COMMANDS = ("simulate", "fit", "wald", "mc", "analytic")
DATA_SEED = 1
#: An mc call with the least base seed, 0; the preset calls use their own.
SEEDED_MC = ["mc", "--scenario", "model-I", "--reps", "50", "--seed", "0",
             "--format", "json"]
KERNELS = ("rect", "parzen", "qs")
COV = ("strong", "sp", "hac")
#: One covariance method and a flag that only the other method reads.
UNRELATED_FLAGS = (("sp", "--bandwidth", "0.001"), ("hac", "--ar-order", "100"))
#: The cli-bivariate --order list: season 1 of order 2, season 2, which
#: the workload restricts nowhere, of order 0.
SEASON_ORDERS = "2,0,1,1,2"
#: The cli-bivariate --restrict list in place of the workload's: three
#: coefficients of season 1 and two of season 2, each tested jointly.
JOINT_RESTRICTIONS = ("phi[1](1,2)=0", "phi[1](2,1)=0", "phi[1](2,2)=0",
                      "phi[2](1,2)=0", "phi[2](2,2)=0")
#: Single --restrict texts in place of the workload's, in the forms that
#: no other call passes.
RESTRICTION_FORMS = ("phi[2][1,1]=0", "phi[3,1](1,2)=0.25")
#: The CSV, written by calls() in its directory, that a call with
#: `--data /dev/stdin` gets through a pipe.
PIPED_CSV = "cli-bivariate.csv"
#: The file, in calls()' directory, that the one call with `--out` writes.
OUT_FILE = "fit-out.json"


def write_model(path, phi, sigma):
    """Write the CLI's model file of phi[v], season v + 1's lag matrix or
    sequence of lag matrices, and sigma[v], its noise covariance."""
    def matrix(m):
        return "; ".join(" ".join(repr(float(x)) for x in row) for row in m)

    d = len(sigma[0])
    lines = [f"s = {len(phi)}", f"d = {d}"]
    for v, (lags, sg) in enumerate(zip(phi, sigma), start=1):
        lags = np.asarray(lags, dtype=float).reshape(-1, d, d)
        lines += [f"[season {v}]", f"p = {len(lags)}"]
        lines += [f"phi{k} = {matrix(a)}" for k, a in enumerate(lags, start=1)]
        lines.append(f"sigma = {matrix(sg)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def simulate_models():
    """{name: (phi, sigma)} of the models the simulate calls draw from, in
    write_model's form: the two bench models, then two drawn from a fixed
    seed.  "order-above-s" has s = 5, d = 9 and order 6, so it renews 45
    state values per cycle and simulate's blocks are one cycle long;
    "order-0-season" has orders 2, 0 and 1."""
    rng = np.random.default_rng(DATA_SEED)

    def draw(orders, d, scale):
        phi = [[scale * rng.standard_normal((d, d)) for _ in range(p)] for p in orders]
        sigma = [a @ a.T + np.eye(d) for a in rng.standard_normal((len(orders), d, d))]
        return phi, sigma

    models = {w: (spec["phi"], spec["sigma"]) for w, spec in workloads.CLI.items()}
    models["order-above-s"] = draw([6, 1, 0, 2, 1], 9, 0.05)
    models["order-0-season"] = draw([2, 0, 1], 2, 0.3)
    return models


def error_calls(tmp):
    """(label, argv) of the calls that must fail, with files in tmp."""
    no_s, sigma_1x1 = (os.path.join(tmp, name) for name in ("no-s.model", "sigma.model"))
    for path, text in ((no_s, "d = 2\n"),
                       (sigma_1x1, "s = 1\nd = 2\n[season 1]\np = 0\nsigma = 1\n")):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return [("no command", []), ("unknown command", ["fi"]), ("fit without flags", ["fit"]),
            ("missing data", ["fit", "--data", os.path.join(tmp, "missing.csv"),
                              "--s", "2"]),
            ("model without s", ["simulate", "--model", no_s, "--n", "10"]),
            ("model sigma shape", ["simulate", "--model", sigma_1x1, "--n", "10"]),
            ("mc reps 0", ["mc", "--reps", "0"])]


def calls(tmp, scenarios):
    """(label, argv, fails) of every call after DUMP, which gave scenarios;
    fails marks the calls of error_calls(tmp)."""
    for command in ("",) + COMMANDS:
        argv = [command, "--help"] if command else ["--help"]
        yield f"help {command or 'pvar'}", argv, False
    for fmt in ("table", "csv", "json"):
        yield f"analytic {fmt}", ["analytic", "--m", "2", "--format", fmt], False
    for label, argv in error_calls(tmp):
        yield f"error {label}", argv, True
    for name in scenarios:
        yield f"mc {name}", ["mc", "--scenario", name, "--format", "json"], False
    yield "mc model-I --seed 0", SEEDED_MC, False
    for workload, spec in workloads.CLI.items():
        csv = os.path.join(tmp, f"{workload}.csv")
        inputs.write_csv(csv, inputs.simulate(spec["phi"], spec["sigma"],
                                              spec["n_cycles"], spec["m"], DATA_SEED))
        for command, argv in workloads.cli_argv(workload, csv):
            yield f"{command} {workload}", argv, False
    bivariate = dict(workloads.cli_argv("cli-bivariate", os.path.join(tmp, PIPED_CSV)))
    fit = bivariate["fit"]
    for kernel in KERNELS:
        yield (f"fit cli-bivariate {kernel}",
               fit + ["--kernel", kernel, "--bandwidth", "0.2"], False)
    yield "fit cli-bivariate from a pipe", fit[:2] + ["/dev/stdin"] + fit[3:], False
    yield "fit cli-bivariate to a file", fit + ["--out", os.path.join(tmp, OUT_FILE)], False
    for method in COV:
        for command, argv in bivariate.items():
            yield f"{command} cli-bivariate {method}", argv + ["--cov", method], False
    yield ("error fit cli-bivariate flat kernel",
           fit + ["--cov", "hac", "--kernel", "rect", "--bandwidth", "full"], True)
    wald = bivariate["wald"]
    yield ("wald cli-bivariate joint restrictions",
           wald[:wald.index("--restrict")]
           + [word for r in JOINT_RESTRICTIONS for word in ("--restrict", r)], False)
    for text in RESTRICTION_FORMS:
        yield (f"wald cli-bivariate {text}",
               wald[:wald.index("--restrict")] + ["--restrict", text], False)
    wide = dict(workloads.cli_argv("cli-wide", os.path.join(tmp, "cli-wide.csv")))["fit"]
    for method, flag, value in UNRELATED_FLAGS:
        yield (f"fit cli-wide {method} {flag} {value}",
               wide + ["--cov", method, flag, value], False)
    yield "fit cli-wide sp --ar-order 2", wide + ["--cov", "sp", "--ar-order", "2"], False
    for command, argv in bivariate.items():
        at = argv.index("--order") + 1
        yield (f"{command} cli-bivariate --order {SEASON_ORDERS}",
               argv[:at] + [SEASON_ORDERS] + argv[at + 1:], False)
    for name, (phi, sigma) in simulate_models().items():
        model = os.path.join(tmp, f"{name}.model")
        write_model(model, phi, sigma)
        for noise in sorted({sc["noise"] for sc in scenarios.values()}):
            yield (f"simulate {name} {noise}",
                   ["simulate", "--model", model, "--n", "500", "--noise", noise,
                    "--m", "2", "--seed", "7"], False)


def run(src, argv, tmp):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    piped = None
    if "/dev/stdin" in argv:
        with open(os.path.join(tmp, PIPED_CSV), "rb") as fh:
            piped = fh.read()
    proc = subprocess.run([sys.executable, "-m", "pvar.cli"] + argv, cwd=tmp,
                          env=env, input=piped, capture_output=True)
    written = b""
    if "--out" in argv:
        path = os.path.join(tmp, argv[argv.index("--out") + 1])
        if os.path.exists(path):
            with open(path, "rb") as fh:
                written = fh.read()
            os.remove(path)
    return proc.returncode, proc.stdout, proc.stderr, written


def first_difference(old, new):
    """'stream: line k' and the two lines where old and new first differ."""
    for stream, a, b in zip(("exit code", "stdout", "stderr", "--out file"), old, new):
        if a == b:
            continue
        if stream == "exit code":
            return f"exit code: {a} != {b}"
        a, b = (text.decode(errors="replace").split("\n") for text in (a, b))
        k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                 min(len(a), len(b)))
        show = [lines[k] if k < len(lines) else "<end>" for lines in (a, b)]
        return f"{stream}: line {k + 1}\n  old: {show[0]}\n  new: {show[1]}"
    return None


def compare(label, call, src_pair, tmp, fails=False):
    """Run call on both trees and print how they compare; returns the
    old tree's stdout, or None if the call differs, or if it fails
    there and fails is false, or succeeds there and fails is true."""
    old, new = (run(src, call, tmp) for src in src_pair)
    if bool(old[0]) != fails:
        stderr = old[2].decode(errors="replace").strip()
        print(f"FAILS   {label}: pvar {' '.join(call)} exits {old[0]} on OLD_SRC"
              f"{', where it should fail' if fails else ''}\n  {stderr}")
        return None
    diff = first_difference(old, new)
    if diff is not None:
        print(f"DIFFERS {label}: pvar {' '.join(call)}\n{diff}")
        return None
    print(f"same    {label} ({len(old[1]) + len(old[3])} bytes)")
    return old[1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not os.path.isfile(os.path.join(src, "pvar", "cli.py")):
            parser.error(f"{src} holds no pvar package")
    src_pair = (args.old_src, args.new_src)
    with tempfile.TemporaryDirectory() as tmp:
        dump = compare("mc scenarios", DUMP, src_pair, tmp)
        if dump is None:
            return 1
        differ = [label for label, call, fails in calls(tmp, json.loads(dump))
                  if compare(label, call, src_pair, tmp, fails) is None]
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
