"""Command-line interface.

Commands:
  simulate   draw a sample from a model file and write CSV
  fit        least squares fit with standard and robust standard errors
  wald       Wald tests of linear restrictions, per season
  mc         run a built-in Monte Carlo scenario
  analytic   closed-form covariance tables of the diagonal two-season example

fit and wald run here; simulate, mc and analytic run from cli_models,
which a fit or wald call never imports.

Exit codes: 0 success, 2 usage error or an array too large to make, 3
data or file error (DataError, OSError), 4 numerical error (NumericError).
"""

import argparse
import atexit
import math
import os
import sys
import warnings

import numpy as np

from .errors import DataError, NumericError, PvarError, require_positive
from .estimate import PeriodicSeries, fit_ols
from .infer import Restriction, t_report, wald
from .linalg import vec
from .lrv import (BANDWIDTH_RULES, COV_METHODS, KERNEL_KINDS, KernelSpec,
                  covariances, default_bandwidth)
from .output import emit, num, render

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# data file parsing

def read_csv(path, s):
    """Load a CSV of d numeric columns into a PeriodicSeries.

    The file is read once; numpy's C reader parses its lines from the
    first data line on (_data_lines), and where it fails, warns or reads
    a non-finite cell, _read_csv_exact does, so the rows are float()'s
    and a DataError names the first cell that is not a finite number.
    A trailing incomplete cycle is dropped with a warning on stderr.
    """
    scan = lines, start = _data_lines(path)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(lines[start:], delimiter=",", comments=None, ndmin=2)
    except (ValueError, Warning):
        data = None
    if data is None or not np.isfinite(data).all():
        data = _read_csv_exact(path, scan)
    extra = data.shape[0] % s
    if data.shape[0] == extra:
        raise DataError(f"{path}: fewer rows than one cycle of {s}")
    if extra:
        print(f"warning: dropping {extra} trailing rows (incomplete cycle)",
              file=sys.stderr)
        data = data[:data.shape[0] - extra]
    return PeriodicSeries(s=s, data=data)


def _data_lines(path):
    """The file's lines, past a UTF-8 byte-order mark, and the index of the
    first nonblank one, or of the next if float() rejects a cell (a header)."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from None
    start = next((k for k, ln in enumerate(lines) if ln.strip()), len(lines))
    try:
        [float(cell) for ln in lines[start:start + 1] for cell in ln.split(",")]
    except ValueError:
        start += 1
    return lines, start


def _read_csv_exact(path, scan):
    """The rows of scan, which is _data_lines(path), each cell read by
    float(); DataError names the first bad one."""
    lines, start = scan
    rows = [(lineno, ln) for lineno, ln in enumerate(lines[start:], start + 1)
            if ln.strip()]
    if not rows:
        raise DataError(f"{path}: no data rows")
    data = []
    for lineno, ln in rows:
        data.append([])
        for colno, cell in enumerate(ln.split(","), start=1):
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}: row {lineno}, column {colno}: "
                                f"non-numeric value {cell.strip()!r}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}: row {lineno}, column {colno}: "
                                f"non-finite value {cell.strip()!r}")
            data[-1].append(value)
    widths = sorted({len(row) for row in data})
    if len(widths) > 1:
        raise DataError(f"{path}: rows have inconsistent column counts {widths}")
    return np.array(data)


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
            return default_bandwidth(n, arg)
        except ValueError as exc:
            raise DataError(str(exc)) from None
    try:
        return require_positive("--bandwidth", float(arg))
    except ValueError:  # not a number, or not in (0, inf)
        raise DataError(f"--bandwidth must be a rule name "
                        f"({', '.join(sorted(BANDWIDTH_RULES))}) or a finite real above 0, "
                        f"got {arg!r}") from None


def _covariances_from_args(args, fit, seasons=None):
    """The per-season Theta estimates of the --cov methods."""
    hac = KernelSpec(args.kernel, _bandwidth_value(args.bandwidth, fit.n_used))
    return covariances(fit, args.cov, hac, args.ar_order, seasons)


# ---------------------------------------------------------------------------
# commands

def _fit_from_args(args):
    series = read_csv(args.data, args.s)
    return fit_ols(series, _season_orders(args.order, args.s), demean=args.demean)


def cmd_fit(args):
    fit = _fit_from_args(args)
    thetas = _covariances_from_args(args, fit)
    headers = (["season", "lag", "row", "col", "estimate"]
               + [f"{prefix}_{m}" for prefix in ("se", "pval") for m in args.cov])
    rows, payload = [], {"command": "fit", "n_cycles": fit.n_used,
                         "orders": fit.orders, "seasons": []}
    for v in range(1, fit.s + 1):
        records = t_report(fit.d, fit.beta_hat[v - 1], thetas[v], fit.n_used,
                           f"season {v}: ")
        payload["seasons"].append({
            "season": v, "coefficients": records,
            "sigma_tilde_vec": vec(fit.sigma_tilde[v - 1]).tolist()})
        for r in records:
            rows.append([v, r["lag"], r["row"], r["col"], num(r["estimate"])]
                        + [num(r["std_errors"][m]) for m in args.cov]
                        + [num(r["p_values"][m]) for m in args.cov])
    emit(render(headers, rows, args.format, payload), args.out)


def cmd_wald(args):
    fit = _fit_from_args(args)
    tests = Restriction.parse(args.restrict, fit.s, fit.d, fit.orders)
    thetas = _covariances_from_args(args, fit, list(tests))
    headers = ["season", "method", "statistic", "df", "p_value"]
    rows, payload = [], {"command": "wald", "n_cycles": fit.n_used, "tests": []}
    for season, rest in tests.items():
        for m in args.cov:
            res = wald(fit.beta_hat[season - 1], thetas[season][m],
                       fit.n_used, rest, f"season {season}, {m}: ")
            rows.append([season, m, num(res.statistic, 10), res.df, num(res.p_value, 10)])
            payload["tests"].append({"season": season, "method": m,
                                     "statistic": res.statistic, "df": res.df,
                                     "p_value": res.p_value})
    emit(render(headers, rows, args.format, payload), args.out)


def _model_command(args):
    """Run simulate, mc or analytic, which cli_models holds."""
    from . import cli_models
    getattr(cli_models, f"cmd_{args.command}")(args)


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line and exit code 2."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None):
        # argparse's drops an OSError from the write; main reports it as exit 3
        file = file or sys.stdout or sys.stderr
        if file:
            file.write(self.format_help())


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


def _add_flags(p, command):
    if command == "simulate":
        from .noise import DEFAULT_BURNIN, NOISE_KINDS
        p.add_argument("--model", required=True)
        p.add_argument("--n", type=_int_from(1), required=True, help="number of cycles")
        p.add_argument("--noise", choices=NOISE_KINDS, default="strong")
        p.add_argument("--m", type=_int_from(1), default=1,
                       help="product window exponent")
        p.add_argument("--seed", type=_int_from(0), default=0)
        p.add_argument("--burnin", type=_int_from(0), default=DEFAULT_BURNIN)
        p.add_argument("--out", default="-")
        return
    if command in ("fit", "wald"):
        p.add_argument("--data", required=True)
        p.add_argument("--s", type=_int_from(1), required=True)
        p.add_argument("--order", type=_orders, default="1")
        p.add_argument("--demean", action=argparse.BooleanOptionalAction, default=True)
        p.add_argument("--cov", type=_cov_methods, default=",".join(COV_METHODS))
        p.add_argument("--kernel", choices=KERNEL_KINDS, default="bartlett")
        p.add_argument("--bandwidth", default=None,
                       help="a rule name or a finite real above 0")
        p.add_argument("--ar-order", type=_ar_order, default="aic",
                       help='"aic" or a fixed nonnegative integer')
    if command == "wald":
        p.add_argument("--restrict", action="append", required=True,
                       help='e.g. "phi[1](2,2)=0"; repeatable')
    if command == "mc":
        from .mc import PRESETS
        p.add_argument("--scenario", choices=list(PRESETS), default="model-I")
        p.add_argument("--reps", type=_int_from(1), default=None)
        p.add_argument("--n", type=_int_from(1), default=None)
        p.add_argument("--seed", type=_int_from(0), default=None)
        p.add_argument("--dump-scenarios", action="store_true")
    if command == "analytic":
        p.add_argument("--m", type=_int_from(1), default=1)
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--out", default="-")


def build_parser(command=None):
    """The parser, flags on command's subparser alone: a call imports only its tables."""
    parser = _Parser(
        prog="pvar",
        description="Periodic vector autoregression estimation and inference")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, func in (
            ("simulate", "simulate a model file to CSV", _model_command),
            ("fit", "least squares fit with robust errors", cmd_fit),
            ("wald", "Wald tests of linear restrictions", cmd_wald),
            ("mc", "run a built-in Monte Carlo scenario", _model_command),
            ("analytic", "closed-form example tables", _model_command)):
        sub.add_parser(name, help=text).set_defaults(func=func)
    if command in sub.choices:
        _add_flags(sub.choices[command], command)
    return parser


def main(argv=None):
    try:
        try:
            argv = sys.argv[1:] if argv is None else argv
            args = build_parser(argv[0] if argv else None).parse_args(argv)
            # an overflow or invalid operation is a numeric failure, not a warning
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                args.func(args)
            code = EXIT_OK
        except SystemExit as exc:  # --help, or a usage error argparse reported
            code = exc.code or EXIT_OK
        if sys.stdout:  # so that a failed write of buffered output is exit 3 too
            sys.stdout.flush()
        return code
    except (DataError, OSError) as exc:
        code, error = EXIT_DATA, exc
    except (PvarError, np.linalg.LinAlgError, ArithmeticError) as exc:
        code, error = EXIT_NUMERIC, exc
    except (ValueError, MemoryError) as exc:  # such as an array too large to make
        code, error = EXIT_USAGE, exc
    print(f"error: {error}", file=sys.stderr)
    return code


def run():
    """Entry point of `pvar` and `python -m pvar.cli`: main(), the atexit
    handlers and a flush, then os._exit, which skips the interpreter's
    teardown; sys.exit under a profiler or tracer, which writes at exit."""
    code = main()
    hooks = getattr(sys, "monitoring", None)  # cProfile's from Python 3.12 on
    if sys.getprofile() or sys.gettrace() or hooks and any(map(hooks.get_tool, range(6))):
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        for stream in filter(None, (sys.stderr, sys.stdout)):
            stream.flush()
    except OSError:  # main has reported the stdout it could not write
        code = code or EXIT_DATA
    os._exit(code)


if __name__ == "__main__":
    run()
