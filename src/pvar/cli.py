"""Command-line interface.

Commands:
  simulate   draw a sample from a model file and write CSV
  fit        least squares fit with standard and robust standard errors
  wald       Wald tests of linear restrictions, per season
  mc         run a built-in Monte Carlo scenario
  analytic   closed-form covariance tables of the diagonal two-season example

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical error.
"""

import argparse
import json
import re
import sys

import numpy as np

from . import analytic as an
from .errors import (EmptyInput, InsufficientData, ParseError, PvarError,
                     RestrictionParseError)
from .estimate import fit_ols
from .infer import Restriction, t_report, wald
from .linalg import vec
from .lrv import BANDWIDTH_RULES, KernelSpec, covariances, default_bandwidth
from .model import PeriodicSeries, PvarModel
from .noise import DEFAULT_BURNIN, NoiseSpec, simulate
from .mc import PRESET_NAMES, preset, run_scenario

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# data and model file handling

def read_csv(path, s, presample_policy="none"):
    """Load a CSV of d numeric columns into a PeriodicSeries.

    An optional single header line is skipped.  A trailing incomplete
    cycle is dropped with a warning on stderr.  presample_policy
    "first-cycles" moves enough leading cycles into the presample to
    cover order-1 lags at every season.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
    rows = []
    start = 0
    non_empty = [ln for ln in lines if ln.strip()]
    if not non_empty:
        raise EmptyInput(f"{path}: no data rows")
    first = non_empty[0].split(",")
    try:
        [float(cell) for cell in first]
    except ValueError:
        start = lines.index(non_empty[0]) + 1  # header line
    for lineno, ln in enumerate(lines[start:], start=start + 1):
        if not ln.strip():
            continue
        cells = ln.split(",")
        row = []
        for colno, cell in enumerate(cells, start=1):
            try:
                row.append(float(cell))
            except ValueError:
                raise ParseError(f"{path}: row {lineno}, column {colno}: "
                                 f"non-numeric value {cell.strip()!r}") from None
        rows.append(row)
    if not rows:
        raise EmptyInput(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(f"{path}: rows have inconsistent column counts {sorted(widths)}")
    data = np.array(rows, dtype=float)
    extra = data.shape[0] % s
    if extra:
        print(f"warning: dropping {extra} trailing rows (incomplete cycle)",
              file=sys.stderr)
        data = data[:data.shape[0] - extra]
    if data.shape[0] == 0:
        raise EmptyInput(f"{path}: fewer rows than one cycle of {s}")
    pre = np.zeros((0, data.shape[1]))
    if presample_policy == "first-cycles":
        if data.shape[0] <= s:
            raise InsufficientData("not enough cycles to reserve a presample")
        pre, data = data[:s], data[s:]
    return PeriodicSeries(s=s, data=data, presample=pre)


def write_csv(path, data):
    out = sys.stdout if path in (None, "-") else open(path, "w", encoding="utf-8")
    try:
        for row in np.atleast_2d(data):
            out.write(",".join(_FLOAT_FMT % x for x in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _parse_matrix(text, what):
    try:
        rows = [[float(x) for x in row.split()] for row in text.split(";")]
    except ValueError:
        raise ParseError(f"{what}: non-numeric matrix entry in {text!r}") from None
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(f"{what}: ragged matrix literal {text!r}")
    return np.array(rows, dtype=float)


def read_model(path):
    """Parse the flat structured-text model format.

    Scalar keys s and d come first; each season block starts with a
    line "[season v]" and holds p, lag matrices phi1..phip, and sigma.
    Matrix literals are row-major with ';' between rows.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from None
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
            seasons[current] = {}
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if current is None:
            header[key] = value
        else:
            seasons[current][key] = value
    for key in ("s", "d"):
        if key not in header:
            raise ParseError(f"{path}: missing header key '{key}'")
    try:
        s, d = int(header["s"]), int(header["d"])
    except ValueError:
        raise ParseError(f"{path}: s and d must be integers") from None
    phi, sigma = [], []
    for v in range(1, s + 1):
        if v not in seasons:
            raise ParseError(f"{path}: missing [season {v}] block")
        block = seasons[v]
        try:
            p = int(block.get("p", "1"))
        except ValueError:
            raise ParseError(f"{path}: season {v}: p must be an integer") from None
        lags = []
        for k in range(1, p + 1):
            key = f"phi{k}"
            if key not in block:
                raise ParseError(f"{path}: season {v}: missing '{key}'")
            mat = _parse_matrix(block[key], f"{path}: season {v} {key}")
            if mat.shape != (d, d):
                raise ParseError(f"{path}: season {v} {key}: expected {d}x{d}")
            lags.append(mat)
        if "sigma" not in block:
            raise ParseError(f"{path}: season {v}: missing 'sigma'")
        sig = _parse_matrix(block["sigma"], f"{path}: season {v} sigma")
        if sig.shape != (d, d):
            raise ParseError(f"{path}: season {v} sigma: expected {d}x{d}")
        phi.append(lags)
        sigma.append(sig)
    return PvarModel(s=s, d=d, phi=phi, sigma=sigma)


_RESTRICT_RE = re.compile(
    r"phi\[(\d+)(?:,(\d+))?\][\(\[](\d+),(\d+)[\)\]]\s*=\s*([-+0-9.eE]+)")


def parse_restriction(text, s, d, orders):
    """Parse "phi[season](row,col)=value" with optional lag "phi[v,k](...)".

    Returns (season, coefficient index, value).
    """
    m = _RESTRICT_RE.fullmatch(text.strip())
    if not m:
        raise RestrictionParseError(
            f"cannot parse restriction {text!r}; expected phi[season](row,col)=value")
    season = int(m.group(1))
    lag = int(m.group(2)) if m.group(2) else 1
    row, col = int(m.group(3)), int(m.group(4))
    try:
        value = float(m.group(5))
    except ValueError:
        raise RestrictionParseError(f"bad value in restriction {text!r}") from None
    if not 1 <= season <= s:
        raise RestrictionParseError(f"season {season} outside 1..{s} in {text!r}")
    if not (1 <= row <= d and 1 <= col <= d):
        raise RestrictionParseError(f"indices outside 1..{d} in {text!r}")
    if not 1 <= lag <= orders[season - 1]:
        raise RestrictionParseError(
            f"lag {lag} outside 1..{orders[season - 1]} in {text!r}")
    index = (lag - 1) * d * d + (col - 1) * d + (row - 1)
    return season, index, value


# ---------------------------------------------------------------------------
# output helpers

def _emit(text, out_path):
    if out_path in (None, "-"):
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _json(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def _table(headers, rows):
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _csv_text(headers, rows):
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    return "\n".join(lines)


def _render(headers, rows, fmt, payload=None):
    if fmt == "json":
        return _json(payload)
    if fmt == "csv":
        return _csv_text(headers, rows)
    return _table(headers, rows)


def _f(x, nd=6):
    return f"{x:.{nd}g}"


# ---------------------------------------------------------------------------
# shared fit machinery

def _parse_orders(text, s):
    parts = text.split(",")
    if len(parts) == 1:
        return [int(parts[0])] * s
    if len(parts) != s:
        raise ParseError(f"--order needs 1 or {s} comma-separated integers")
    return [int(x) for x in parts]


def _bandwidth_value(arg, n):
    if arg is None:
        return default_bandwidth(n, "andrews")
    if arg in BANDWIDTH_RULES:
        return default_bandwidth(n, arg)
    try:
        b = float(arg)
    except ValueError:
        raise ParseError(f"--bandwidth must be a rule name "
                         f"({', '.join(sorted(BANDWIDTH_RULES))}) or a number") from None
    if not b > 0:
        raise ParseError("--bandwidth must be positive")
    return b


def _parse_methods(text):
    methods = [m.strip() for m in text.split(",") if m.strip()]
    for m in methods:
        if m not in ("strong", "sp", "hac"):
            raise ParseError(f"unknown covariance method {m!r}; use strong, sp, hac")
    return methods


def _covariances_from_args(args, fit, seasons=None):
    """The --cov methods and their per-season Theta estimates."""
    methods = _parse_methods(args.cov)
    hac = KernelSpec(args.kernel, _bandwidth_value(args.bandwidth, fit.n_used))
    ar_order = "aic" if args.ar_order == "aic" else int(args.ar_order)
    return methods, covariances(fit, methods, hac, ar_order, seasons)


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args):
    model = read_model(args.model)
    spec = NoiseSpec(kind=args.noise, m=args.m)
    series = simulate(model, args.n, spec, seed=args.seed, burnin=args.burnin)
    write_csv(args.out, series.data)
    return EXIT_OK


def _fit_from_args(args):
    series = read_csv(args.data, args.s, presample_policy=args.presample)
    orders = _parse_orders(args.order, args.s)
    return fit_ols(series, orders, demean=args.demean)


def cmd_fit(args):
    fit = _fit_from_args(args)
    methods, thetas = _covariances_from_args(args, fit)
    headers = ["season", "lag", "row", "col", "estimate"]
    for prefix in ("se", "pval", "pval_wald"):
        headers += [f"{prefix}_{m}" for m in methods]
    rows, payload = [], {"command": "fit", "n_cycles": fit.n_used,
                         "orders": fit.orders, "seasons": []}
    for v in range(1, fit.s + 1):
        report = t_report(v, fit.d, fit.orders[v - 1], fit.beta_hat[v - 1],
                          thetas[v], fit.n_used)
        season_payload = {"season": v, "coefficients": [],
                          "sigma_tilde_vec": [float(x) for x in
                                              vec(fit.sigma_tilde[v - 1])]}
        for entry in report:
            row = [entry.season, entry.lag, entry.row, entry.col, _f(entry.estimate)]
            row += [_f(entry.std_errors[m]) for m in methods]
            row += [_f(entry.p_values[m]) for m in methods]
            row += [_f(entry.p_values_wald[m]) for m in methods]
            rows.append(row)
            season_payload["coefficients"].append({
                "lag": entry.lag, "row": entry.row, "col": entry.col,
                "estimate": entry.estimate,
                "std_errors": entry.std_errors,
                "p_values": entry.p_values,
                "p_values_wald": entry.p_values_wald,
            })
        payload["seasons"].append(season_payload)
    _emit(_render(headers, rows, args.format, payload), args.out)
    return EXIT_OK


def cmd_wald(args):
    fit = _fit_from_args(args)
    per_season = {}
    for text in args.restrict:
        season, index, value = parse_restriction(text, fit.s, fit.d, fit.orders)
        per_season.setdefault(season, []).append((index, value))
    methods, thetas = _covariances_from_args(args, fit, sorted(per_season))
    headers = ["season", "method", "statistic", "df", "p_value"]
    rows, payload = [], {"command": "wald", "n_cycles": fit.n_used, "tests": []}
    for season in sorted(per_season):
        pairs = per_season[season]
        n_coef = fit.d * fit.d * fit.orders[season - 1]
        rest = Restriction.coordinates([i for i, _ in pairs], n_coef,
                                       values=[val for _, val in pairs])
        for m in methods:
            res = wald(fit.beta_hat[season - 1], thetas[season][m],
                       fit.n_used, rest, method=m)
            rows.append([season, m, _f(res.statistic, 10), res.df, _f(res.p_value, 10)])
            payload["tests"].append({"season": season, "method": m,
                                     "statistic": res.statistic, "df": res.df,
                                     "p_value": res.p_value})
    _emit(_render(headers, rows, args.format, payload), args.out)
    return EXIT_OK


def cmd_mc(args):
    if args.dump_scenarios:
        payload = {}
        for name in PRESET_NAMES:
            sc = preset(name)
            payload[name] = {
                "noise": sc.noise.kind, "m": sc.noise.m,
                "n_cycles": sc.n_cycles, "reps": sc.reps,
                "levels": list(sc.levels), "methods": list(sc.methods),
                "base_seed": sc.base_seed,
                "phi11": list(_diag_entries(sc.model, 0)),
                "phi22": list(_diag_entries(sc.model, 1)),
                "sigma": [[list(r) for r in m] for m in sc.model.sigma],
            }
        _emit(_json(payload), args.out)
        return EXIT_OK
    sc = preset(args.scenario, n_cycles=args.n, reps=args.reps,
                base_seed=args.seed)
    report = run_scenario(sc)
    headers = ["season", "method", "level", "rejection"]
    rows = []
    tests = []
    for (v, method, level) in sorted(report.rejection):
        freq = report.rejection[(v, method, level)]
        rows.append([v, method, _f(level, 3), _f(freq, 6)])
        tests.append({"season": v, "method": method, "level": level,
                      "rejection": freq})
    payload = {"command": "mc", "scenario": report.scenario,
               "reps": report.reps, "completed": report.completed,
               "failures": report.failures, "rejection": tests,
               "sse": {f"{v}:{i}": report.coef_sse[(v, i)]
                       for (v, i) in sorted(report.coef_sse)}}
    _emit(_render(headers, rows, args.format, payload), args.out)
    return EXIT_OK


def _diag_entries(model, i):
    return [float(model.phi[v][0][i, i]) for v in range(model.s)]


def cmd_analytic(args):
    params = an.DiagExampleParams(m=args.m)
    omega = an.omega_closed(params)
    theta_s = an.theta_s_closed(params)
    theta = an.theta_closed(params)
    psi = an.psi_closed(params)
    headers = ["quantity", "season", "diagonal"]
    rows, payload = [], {"command": "analytic", "m": args.m}
    for name, pair in (("omega", omega), ("psi", psi),
                       ("theta_s", theta_s), ("theta", theta)):
        payload[name] = {}
        for v in (1, 2):
            diag = [float(x) for x in np.diag(pair[v - 1])]
            rows.append([name, v, " ".join(_f(x) for x in diag)])
            payload[name][str(v)] = diag
    _emit(_render(headers, rows, args.format, payload), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _add_fit_flags(p):
    p.add_argument("--data", required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--order", default="1")
    p.add_argument("--demean", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--presample", choices=["none", "first-cycles"], default="none")
    p.add_argument("--cov", default="strong,sp,hac")
    p.add_argument("--kernel", choices=["bartlett", "rect", "parzen", "qs"],
                   default="bartlett")
    p.add_argument("--bandwidth", default=None,
                   help="rule name or explicit positive value")
    p.add_argument("--ar-order", default="aic",
                   help='"aic" or a fixed nonnegative integer')


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pvar",
        description="Periodic vector autoregression estimation and inference")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a model file to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True, help="number of cycles")
    p.add_argument("--noise", choices=["strong", "weak-product"], default="strong")
    p.add_argument("--m", type=int, default=1, help="product window exponent")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--burnin", type=int, default=DEFAULT_BURNIN)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="least squares fit with robust errors")
    _add_fit_flags(p)
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("wald", help="Wald tests of linear restrictions")
    _add_fit_flags(p)
    p.add_argument("--restrict", action="append", required=True,
                   help='e.g. "phi[1](2,2)=0"; repeatable')
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_wald)

    p = sub.add_parser("mc", help="run a built-in Monte Carlo scenario")
    p.add_argument("--scenario", choices=list(PRESET_NAMES), default="model-I")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--dump-scenarios", action="store_true")
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("analytic", help="closed-form example tables")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_analytic)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, InsufficientData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PvarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
