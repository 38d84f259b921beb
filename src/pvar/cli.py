"""Command-line interface.

Commands:
  simulate   draw a sample from a model file and write CSV
  fit        least squares fit with standard and robust standard errors
  wald       Wald tests of linear restrictions, per season
  mc         run a built-in Monte Carlo scenario
  analytic   closed-form covariance tables of the diagonal two-season example

Exit codes: 0 success, 2 usage error, 3 data or file error (DataError,
OSError), 4 numerical error (NumericError).
"""

import argparse
import json
import math
import re
import sys

import numpy as np

from . import analytic as an
from .errors import DataError, NumericError, PvarError
from .estimate import fit_ols
from .infer import Restriction, t_report, wald
from .linalg import vec
from .lrv import (BANDWIDTH_RULES, COV_METHODS, KERNEL_KINDS, KernelSpec,
                  covariances, default_bandwidth)
from .model import PeriodicSeries, PvarModel, companion_spectral_radius
from .noise import DEFAULT_BURNIN, NOISE_KINDS, NoiseSpec, simulate
from .mc import PRESETS, preset, run_scenario

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# data and model file handling

def read_csv(path, s):
    """Load a CSV of d numeric columns into a PeriodicSeries.

    An optional single header line is skipped.  A cell that is not a
    finite number is a DataError naming its row and column.  A
    trailing incomplete cycle is dropped with a warning on stderr.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from None
    rows = [(lineno, ln) for lineno, ln in enumerate(lines, start=1) if ln.strip()]
    try:
        [float(cell) for cell in rows[0][1].split(",")]
    except IndexError:  # blank lines only
        pass
    except ValueError:  # a header line
        rows = rows[1:]
    if not rows:
        raise DataError(f"{path}: no data rows")
    body = [ln for _, ln in rows]
    try:
        # numpy accepts and rejects a cell exactly as float() does
        data = np.array(",".join(body).split(","), dtype=float).reshape(len(body), -1)
        parsed = len({ln.count(",") for ln in body}) == 1 and np.isfinite(data).all()
    except ValueError:
        parsed = False
    if not parsed:  # name the first bad cell; with none, the rows are ragged
        for lineno, ln in rows:
            for colno, cell in enumerate(ln.split(","), start=1):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(f"{path}: row {lineno}, column {colno}: "
                                    f"non-numeric value {cell.strip()!r}") from None
                if not math.isfinite(value):
                    raise DataError(f"{path}: row {lineno}, column {colno}: "
                                    f"non-finite value {cell.strip()!r}")
        widths = sorted({ln.count(",") + 1 for ln in body})
        raise DataError(f"{path}: rows have inconsistent column counts {widths}")
    extra = data.shape[0] % s
    if data.shape[0] == extra:
        raise DataError(f"{path}: fewer rows than one cycle of {s}")
    if extra:
        print(f"warning: dropping {extra} trailing rows (incomplete cycle)",
              file=sys.stderr)
        data = data[:data.shape[0] - extra]
    return PeriodicSeries(s=s, data=data)


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
        raise DataError(f"{what}: non-numeric matrix entry in {text!r}") from None
    if not all(math.isfinite(x) for row in rows for x in row):
        raise DataError(f"{what}: non-finite matrix entry in {text!r}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise DataError(f"{what}: ragged matrix literal {text!r}")
    return np.array(rows, dtype=float)


def read_model(path):
    """Parse the flat structured-text model format.

    Scalar keys s and d come first; each season block starts with a
    line "[season v]" and holds p, lag matrices phi1..phip, and sigma,
    and no other key.  No key may appear twice in the header or in one
    block.  Matrix literals are row-major with ';' between rows.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
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
            mat = _parse_matrix(block[key], f"{path}: season {v} {key}")
            if mat.shape != (d, d):
                raise DataError(f"{path}: season {v} {key}: expected {d}x{d}")
            lags.append(mat)
        # phi1..phip are all present here, so p is at most the block's size
        unknown = set(block) - {"p", "sigma"} - {f"phi{k}" for k in range(1, p + 1)}
        if unknown:
            raise DataError(f"{path}: season {v}: unknown key '{min(unknown)}'")
        if "sigma" not in block:
            raise DataError(f"{path}: season {v}: missing 'sigma'")
        sig = _parse_matrix(block["sigma"], f"{path}: season {v} sigma")
        if sig.shape != (d, d):
            raise DataError(f"{path}: season {v} sigma: expected {d}x{d}")
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
        raise DataError(
            f"cannot parse restriction {text!r}; expected phi[season](row,col)=value")
    season = int(m.group(1))
    lag = int(m.group(2)) if m.group(2) else 1
    row, col = int(m.group(3)), int(m.group(4))
    try:
        value = float(m.group(5))
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise DataError(f"bad value in restriction {text!r}")
    if not 1 <= season <= s:
        raise DataError(f"season {season} outside 1..{s} in {text!r}")
    if not (1 <= row <= d and 1 <= col <= d):
        raise DataError(f"indices outside 1..{d} in {text!r}")
    if not 1 <= lag <= orders[season - 1]:
        raise DataError(
            f"lag {lag} outside 1..{orders[season - 1]} in {text!r}")
    index = (lag - 1) * d * d + (col - 1) * d + (row - 1)
    return season, index, value


# ---------------------------------------------------------------------------
# output helpers

def _emit(text, out_path):
    text = text if text.endswith("\n") else text + "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def _table(headers, rows):
    cells = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _render(headers, rows, fmt, payload=None):
    if fmt == "json":
        return _json(payload)
    if fmt == "csv":
        return "\n".join(",".join(str(c) for c in row) for row in [headers] + rows)
    return _table(headers, rows)


def _f(x, nd=6):
    return f"{x:.{nd}g}"


# ---------------------------------------------------------------------------
# shared fit machinery

def _season_orders(orders, s):
    """The --order list, one entry per season."""
    if len(orders) == 1:
        return orders * s
    if len(orders) != s:
        raise DataError(f"--order needs 1 or {s} comma-separated integers")
    return orders


def _bandwidth_value(arg, n):
    if arg is None or arg in BANDWIDTH_RULES:
        try:
            return default_bandwidth(n, arg or "andrews")
        except ValueError as exc:
            raise DataError(str(exc)) from None
    try:
        b = float(arg)
    except ValueError:
        raise DataError(f"--bandwidth must be a rule name "
                        f"({', '.join(sorted(BANDWIDTH_RULES))}) or a number") from None
    if not 0 < b < math.inf:
        raise DataError("--bandwidth must be a positive finite number")
    return b


def _covariances_from_args(args, fit, seasons=None):
    """The per-season Theta estimates of the --cov methods."""
    hac = KernelSpec(args.kernel, _bandwidth_value(args.bandwidth, fit.n_used))
    return covariances(fit, args.cov, hac, args.ar_order, seasons)


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(args):
    model = read_model(args.model)
    spec = NoiseSpec(kind=args.noise, m=args.m)
    series = simulate(model, args.n, spec, seed=args.seed, burnin=args.burnin)
    rho = companion_spectral_radius(model)
    if rho > 0 and rho ** args.burnin > 1e-12:
        print(f"warning: --burnin {args.burnin} is short for companion spectral "
              f"radius {rho:.4g}", file=sys.stderr)
    write_csv(args.out, series.data)
    return EXIT_OK


def _fit_from_args(args):
    series = read_csv(args.data, args.s)
    orders = _season_orders(args.order, args.s)
    return fit_ols(series, orders, demean=args.demean)


def cmd_fit(args):
    fit = _fit_from_args(args)
    thetas = _covariances_from_args(args, fit)
    headers = (["season", "lag", "row", "col", "estimate"]
               + [f"{prefix}_{m}" for prefix in ("se", "pval") for m in args.cov])
    rows, payload = [], {"command": "fit", "n_cycles": fit.n_used,
                         "orders": fit.orders, "seasons": []}
    for v in range(1, fit.s + 1):
        records = t_report(fit.d, fit.beta_hat[v - 1], thetas[v], fit.n_used)
        payload["seasons"].append({
            "season": v, "coefficients": records,
            "sigma_tilde_vec": vec(fit.sigma_tilde[v - 1]).tolist()})
        for r in records:
            rows.append([v, r["lag"], r["row"], r["col"], _f(r["estimate"])]
                        + [_f(r["std_errors"][m]) for m in args.cov]
                        + [_f(r["p_values"][m]) for m in args.cov])
    _emit(_render(headers, rows, args.format, payload), args.out)
    return EXIT_OK


def cmd_wald(args):
    fit = _fit_from_args(args)
    per_season = {}
    for text in args.restrict:
        season, index, value = parse_restriction(text, fit.s, fit.d, fit.orders)
        targets = per_season.setdefault(season, {})
        if index in targets:
            raise DataError(
                f"restriction {text!r} repeats an earlier one's coefficient")
        targets[index] = value
    thetas = _covariances_from_args(args, fit, sorted(per_season))
    headers = ["season", "method", "statistic", "df", "p_value"]
    rows, payload = [], {"command": "wald", "n_cycles": fit.n_used, "tests": []}
    for season in sorted(per_season):
        targets = per_season[season]
        n_coef = fit.d * fit.d * fit.orders[season - 1]
        rest = Restriction.coordinates(list(targets), n_coef,
                                       values=list(targets.values()))
        for m in args.cov:
            res = wald(fit.beta_hat[season - 1], thetas[season][m],
                       fit.n_used, rest)
            rows.append([season, m, _f(res.statistic, 10), res.df, _f(res.p_value, 10)])
            payload["tests"].append({"season": season, "method": m,
                                     "statistic": res.statistic, "df": res.df,
                                     "p_value": res.p_value})
    _emit(_render(headers, rows, args.format, payload), args.out)
    return EXIT_OK


def cmd_mc(args):
    if args.dump_scenarios:
        payload = {}
        for name in PRESETS:
            sc = preset(name)
            payload[name] = {
                "noise": sc.noise.kind, "m": sc.noise.m,
                "n_cycles": sc.n_cycles, "reps": sc.reps,
                "levels": list(sc.levels), "methods": list(sc.methods),
                "base_seed": sc.base_seed, "bandwidth": sc.bandwidth,
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
    rows, tests = [], []
    for (v, method, level) in sorted(report.rejection):
        freq = report.rejection[(v, method, level)]
        rows.append([v, method, _f(level, 3), _f(freq, 6)])
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
    _emit(_render(headers, rows, args.format, payload), args.out)
    return EXIT_OK


def _diag_entries(model, i):
    return [float(model.phi[v][0][i, i]) for v in range(model.s)]


def cmd_analytic(args):
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
            rows.append([name, v, " ".join(_f(x) for x in diag)])
            payload[name][str(v)] = diag
    _emit(_render(headers, rows, args.format, payload), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit code 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_from(low):
    """argparse type: an integer of at least low."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _orders(text):
    """argparse type: comma-separated nonnegative integers."""
    return [_int_from(0)(part) for part in text.split(",")]


def _ar_order(text):
    """argparse type: "aic" or a nonnegative integer."""
    return text if text == "aic" else _int_from(0)(text)


def _cov_methods(text):
    """argparse type: a nonempty list of distinct COV_METHODS keys."""
    methods = [m.strip() for m in text.split(",") if m.strip()]
    names = ", ".join(COV_METHODS)
    if not methods:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of {names}")
    for i, m in enumerate(methods):
        if m not in COV_METHODS:
            raise argparse.ArgumentTypeError(
                f"unknown covariance method {m!r}; use {names}")
        if m in methods[:i]:
            raise argparse.ArgumentTypeError(f"covariance method {m!r} repeated")
    return methods


def _add_fit_flags(p):
    p.add_argument("--data", required=True)
    p.add_argument("--s", type=_int_from(1), required=True)
    p.add_argument("--order", type=_orders, default="1")
    p.add_argument("--demean", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--cov", type=_cov_methods, default=",".join(COV_METHODS))
    p.add_argument("--kernel", choices=KERNEL_KINDS, default="bartlett")
    p.add_argument("--bandwidth", default=None,
                   help="rule name or explicit positive value")
    p.add_argument("--ar-order", type=_ar_order, default="aic",
                   help='"aic" or a fixed nonnegative integer')


def build_parser():
    parser = _Parser(
        prog="pvar",
        description="Periodic vector autoregression estimation and inference")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a model file to CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=_int_from(1), required=True, help="number of cycles")
    p.add_argument("--noise", choices=NOISE_KINDS, default="strong")
    p.add_argument("--m", type=_int_from(1), default=1, help="product window exponent")
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--burnin", type=_int_from(0), default=DEFAULT_BURNIN)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="least squares fit with robust errors")
    _add_fit_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("wald", help="Wald tests of linear restrictions")
    _add_fit_flags(p)
    p.add_argument("--restrict", action="append", required=True,
                   help='e.g. "phi[1](2,2)=0"; repeatable')
    p.set_defaults(func=cmd_wald)

    p = sub.add_parser("mc", help="run a built-in Monte Carlo scenario")
    p.add_argument("--scenario", choices=list(PRESETS), default="model-I")
    p.add_argument("--reps", type=_int_from(1), default=None)
    p.add_argument("--n", type=_int_from(1), default=None)
    p.add_argument("--seed", type=_int_from(0), default=None)
    p.add_argument("--dump-scenarios", action="store_true")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("analytic", help="closed-form example tables")
    p.add_argument("--m", type=_int_from(1), default=1)
    p.set_defaults(func=cmd_analytic)

    for name in ("fit", "wald", "mc", "analytic"):
        sub.choices[name].add_argument(
            "--format", choices=["table", "csv", "json"], default="table")
        sub.choices[name].add_argument("--out", default="-")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else EXIT_OK
    try:
        # an overflow or invalid operation is a numeric failure, not a warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except (DataError, OSError) as exc:
        code, error = EXIT_DATA, exc
    except (PvarError, np.linalg.LinAlgError, ArithmeticError) as exc:
        code, error = EXIT_NUMERIC, exc
    except ValueError as exc:  # such as numpy's "Maximum allowed dimension exceeded"
        code, error = EXIT_USAGE, exc
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
