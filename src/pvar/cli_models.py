"""The commands that start from a model: simulate, mc and analytic.

cli parses their flags and runs them from here, so that a fit or wald
call loads none of this module, of the model file format or of the
modules these commands call.  Each command imports those when it runs.
"""

import math
import re
import sys

import numpy as np

from .errors import DataError, NumericError
from .output import emit, num, render, to_json

_FLOAT_FMT = "%.17g"


def write_csv(path, data):
    emit("".join(",".join(_FLOAT_FMT % x for x in row) + "\n"
                 for row in np.atleast_2d(data)), path)


def _parse_matrix(text, what, d):
    try:
        rows = [[float(x) for x in row.split()] for row in text.split(";")]
    except ValueError:
        raise DataError(f"{what}: non-numeric matrix entry in {text!r}") from None
    if not all(math.isfinite(x) for row in rows for x in row):
        raise DataError(f"{what}: non-finite matrix entry in {text!r}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{what}: ragged matrix literal {text!r}")
    if (len(rows), widths.pop()) != (d, d):
        raise DataError(f"{what}: expected {d}x{d}")
    return np.array(rows, dtype=float)


def read_model(path):
    """Parse the flat structured-text model format.

    Scalar keys s and d come first; each season block starts with a
    line "[season v]" and holds p, lag matrices phi1..phip, and sigma,
    and no other key.  No key may appear twice in the header or in one
    block.  Matrix literals are row-major with ';' between rows.
    """
    from .model import PvarModel
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from None
    header = {}
    seasons = {}
    current = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        msec = re.fullmatch(r"\[season\s+(\d+)\]", line)
        if msec:
            current = int(msec.group(1))
            if current in seasons:
                raise DataError(
                    f"{path}: line {lineno}: repeated [season {current}] block")
            seasons[current] = {}
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        block = header if current is None else seasons[current]
        if current is None and key not in ("s", "d"):
            raise DataError(f"{path}: line {lineno}: unknown header key '{key}'")
        if key in block:
            raise DataError(f"{path}: line {lineno}: repeated key '{key}'")
        block[key] = value
    for key in ("s", "d"):
        if key not in header:
            raise DataError(f"{path}: missing header key '{key}'")
    try:
        s, d = int(header["s"]), int(header["d"])
    except ValueError:
        raise DataError(f"{path}: s and d must be integers") from None
    if s < 1 or d < 1:
        raise DataError(f"{path}: s and d must be at least 1")
    for v in seasons:
        if not 1 <= v <= s:
            raise DataError(f"{path}: [season {v}] outside 1..{s}")
    phi, sigma = [], []
    for v in range(1, s + 1):
        if v not in seasons:
            raise DataError(f"{path}: missing [season {v}] block")
        block = seasons[v]
        try:
            p = int(block.get("p", "1"))
        except ValueError:
            raise DataError(f"{path}: season {v}: p must be an integer") from None
        if p < 0:
            raise DataError(f"{path}: season {v}: p must be at least 0")
        lags = []
        for k in range(1, p + 1):
            key = f"phi{k}"
            if key not in block:
                raise DataError(f"{path}: season {v}: missing '{key}'")
            lags.append(_parse_matrix(block[key], f"{path}: season {v} {key}", d))
        # phi1..phip are all present here, so p is at most the block's size
        unknown = set(block) - {"p", "sigma"} - {f"phi{k}" for k in range(1, p + 1)}
        if unknown:
            raise DataError(f"{path}: season {v}: unknown key '{min(unknown)}'")
        if "sigma" not in block:
            raise DataError(f"{path}: season {v}: missing 'sigma'")
        phi.append(lags)
        sigma.append(_parse_matrix(block["sigma"], f"{path}: season {v} sigma", d))
    return PvarModel(s=s, d=d, phi=phi, sigma=sigma)


def cmd_simulate(args):
    from .model import companion_spectral_radius
    from .noise import NoiseSpec, simulate
    model = read_model(args.model)
    spec = NoiseSpec(kind=args.noise, m=args.m)
    series = simulate(model, args.n, spec, seed=args.seed, burnin=args.burnin)
    rho = companion_spectral_radius(model)
    if rho > 0 and rho ** args.burnin > 1e-12:
        print(f"warning: --burnin {args.burnin} is short for companion spectral "
              f"radius {rho:.4g}", file=sys.stderr)
    write_csv(args.out, series.data)


def cmd_mc(args):
    from .mc import LEVELS, PRESETS, preset, run_scenario
    if args.dump_scenarios:
        scenarios = {name: preset(name) for name in PRESETS}
        emit(to_json({name: {
            "noise": sc.noise.kind, "m": sc.noise.m, "n_cycles": sc.n_cycles,
            "reps": sc.reps, "levels": list(LEVELS), "methods": list(sc.methods),
            "base_seed": sc.base_seed, "bandwidth": sc.bandwidth,
            "phi11": [float(phi[0][0, 0]) for phi in sc.model.phi],
            "phi22": [float(phi[0][1, 1]) for phi in sc.model.phi],
            "sigma": [[list(r) for r in m] for m in sc.model.sigma],
        } for name, sc in scenarios.items()}), args.out)
        return
    sc = preset(args.scenario, n_cycles=args.n, reps=args.reps,
                base_seed=args.seed)
    report = run_scenario(sc)
    headers = ["season", "method", "level", "rejection"]
    rows, tests = [], []
    for (v, method, level) in sorted(report.rejection):
        freq = report.rejection[(v, method, level)]
        rows.append([v, method, num(level, 3), num(freq, 6)])
        tests.append({"season": v, "method": method, "level": level,
                      "rejection": freq,
                      "mc_se": math.sqrt(freq * (1 - freq) / report.completed)})
    payload = {"command": "mc", "scenario": report.scenario,
               "reps": report.reps, "completed": report.completed,
               "failures": report.failures, "rejection": tests,
               "failure_reasons": [
                   {"class": cls, "message": msg, "count": count}
                   for (cls, msg), count in report.failure_reasons.items()],
               "sse": {f"{v}:{i}": report.coef_sse[(v, i)]
                       for (v, i) in sorted(report.coef_sse)}}
    emit(render(headers, rows, args.format, payload), args.out)


def cmd_analytic(args):
    from . import analytic as an
    params = an.DiagExampleParams(m=args.m)
    omega = an.omega_closed(params)
    theta_s = an.theta_s_closed(params)
    try:  # 3.0 ** m overflows from m = 647, the sandwich products from m = 645
        theta = an.theta_closed(params)
        psi = an.psi_closed(params)
    except (OverflowError, FloatingPointError) as exc:
        raise NumericError(f"--m {args.m} is too large: the closed forms "
                           "overflow double precision") from exc
    headers = ["quantity", "season", "diagonal"]
    rows, payload = [], {"command": "analytic", "m": args.m}
    for name, pair in (("omega", omega), ("psi", psi),
                       ("theta_s", theta_s), ("theta", theta)):
        payload[name] = {}
        for v in (1, 2):
            diag = [float(x) for x in np.diag(pair[v - 1])]
            rows.append([name, v, " ".join(num(x) for x in diag)])
            payload[name][str(v)] = diag
    emit(render(headers, rows, args.format, payload), args.out)
