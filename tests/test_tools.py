import importlib.util
import json
import os

import numpy as np

from pvar.cli import main
from pvar.cli_models import read_model
from pvar.model import PvarModel, require_causal
from pvar.noise import block_cycles

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "compare_outputs.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_writes_models_the_cli_reads(tmp_path):
    tool = load_tool()
    models = tool.simulate_models()
    assert list(models)[:2] == list(tool.workloads.CLI)
    for phi, sigma in models.values():
        path = str(tmp_path / "m.txt")
        tool.write_model(path, phi, sigma)
        model = read_model(path)
        d = len(sigma[0])
        for v, lags in enumerate(phi):
            want = np.asarray(lags, dtype=float).reshape(-1, d, d)
            assert np.array_equal(np.reshape(model.phi[v], (-1, d, d)), want)
            assert np.array_equal(model.sigma[v], np.asarray(sigma[v]))


def test_compare_outputs_simulates_a_long_order_and_an_order_0_season():
    models = load_tool().simulate_models()
    long_order = PvarModel(5, 9, *models["order-above-s"])
    assert long_order.max_p > long_order.s and block_cycles(long_order) == 1
    zero = PvarModel(3, 2, *models["order-0-season"])
    assert [zero.p(v) for v in (1, 2, 3)] == [2, 0, 1]
    for model in (long_order, zero):
        require_causal(model)


def test_compare_outputs_names_the_first_differing_line():
    diff = load_tool().first_difference
    same = (0, b"a\nb\n", b"")
    assert diff(same, same) is None
    assert diff(same, (2, b"", b"")) == "exit code: 0 != 2"
    assert diff(same, (0, b"a\nc\n", b"")) == "stdout: line 2\n  old: b\n  new: c"
    assert diff(same, (0, b"a\nb\n", b"w")) == "stderr: line 1\n  old: \n  new: w"
    assert diff(same, (0, b"a\n", b"")) == "stdout: line 2\n  old: b\n  new: "


def test_compare_outputs_checks_help_analytic_and_error_calls(tmp_path, capsys):
    listed = list(load_tool().calls(str(tmp_path), {}))
    assert [label for label, _, _ in listed[:12]] == [
        "help pvar", "help simulate", "help fit", "help wald", "help mc", "help analytic",
        "analytic table", "analytic csv", "analytic json", "error missing data",
        "error model without s", "error mc reps 0"]
    assert [label for label, _, fails in listed if fails] == [
        "error missing data", "error model without s", "error mc reps 0",
        "error fit cli-bivariate flat kernel"]
    assert [main(argv) for _, argv, _ in listed[:12]] == [0] * 9 + [3, 3, 2]
    err = capsys.readouterr().err.splitlines()
    assert err[0].endswith("missing.csv: [Errno 2] No such file or directory: "
                           f"'{tmp_path / 'missing.csv'}'")
    assert err[1].endswith("no-s.model: missing header key 's'")


def test_compare_outputs_fits_under_each_kernel_and_from_a_pipe(tmp_path):
    tool = load_tool()
    listed = {label: argv for label, argv, _ in tool.calls(str(tmp_path), {})}
    fit = listed["fit cli-bivariate"]
    for kernel in ("rect", "parzen", "qs"):
        assert listed[f"fit cli-bivariate {kernel}"] == fit + ["--kernel", kernel,
                                                              "--bandwidth", "0.2"]
    piped = listed["fit cli-bivariate from a pipe"]
    assert piped == [word if word != fit[2] else "/dev/stdin" for word in fit]
    src = os.path.join(os.path.dirname(os.path.dirname(TOOL)), "src")
    code, out, err, written = tool.run(src, piped, str(tmp_path))
    assert (code, out, err, written) == tool.run(src, fit, str(tmp_path)) and code == 0


def test_compare_outputs_runs_each_covariance_method_alone_and_a_flat_kernel(
        tmp_path, capsys):
    tool = load_tool()
    listed = {label: (argv, fails) for label, argv, fails in tool.calls(str(tmp_path), {})}
    for method in ("strong", "sp", "hac"):
        for command in ("fit", "wald"):
            argv, fails = listed[f"{command} cli-bivariate {method}"]
            assert argv == listed[f"{command} cli-bivariate"][0] + ["--cov", method]
            assert not fails
    argv, fails = listed["error fit cli-bivariate flat kernel"]
    assert fails and argv == listed["fit cli-bivariate"][0] + [
        "--cov", "hac", "--kernel", "rect", "--bandwidth", "full"]
    assert main(argv) == 4
    assert capsys.readouterr().err.endswith("so the HAC Psi is zero\n")


def test_compare_outputs_fits_cli_wide_with_a_flag_of_the_other_method(tmp_path):
    # covariances summed the score lags that a method not asked for reads
    listed = {label: (argv, fails) for label, argv, fails in
              load_tool().calls(str(tmp_path), {})}
    fit = listed["fit cli-wide"][0]
    assert listed["fit cli-wide sp --bandwidth 0.001"] == (
        fit + ["--cov", "sp", "--bandwidth", "0.001"], False)
    assert listed["fit cli-wide hac --ar-order 100"] == (
        fit + ["--cov", "hac", "--ar-order", "100"], False)


def test_compare_outputs_fits_a_fixed_ar_order_and_an_order_list(tmp_path, capsys):
    # the paths a library order or ar_order takes through the integer rule
    tool = load_tool()
    listed = {label: (argv, fails) for label, argv, fails in tool.calls(str(tmp_path), {})}
    assert listed["fit cli-wide sp --ar-order 2"] == (
        listed["fit cli-wide"][0] + ["--cov", "sp", "--ar-order", "2"], False)
    orders = [int(p) for p in tool.SEASON_ORDERS.split(",")]
    restricted = tool.workloads.CLI["cli-bivariate"]["restricted"]
    assert 2 in orders and any(p == 0 and v not in restricted
                               for v, p in enumerate(orders, start=1))
    for command in ("fit", "wald"):
        argv, fails = listed[f"{command} cli-bivariate --order {tool.SEASON_ORDERS}"]
        plain = listed[f"{command} cli-bivariate"][0]
        at = plain.index("--order") + 1
        assert not fails and argv == plain[:at] + [tool.SEASON_ORDERS] + plain[at + 1:]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert command == "wald" or out["orders"] == orders


def test_compare_outputs_runs_mc_from_the_least_seed(tmp_path, capsys):
    # no other call passes --seed, and 0 is the least the seed rule accepts
    tool = load_tool()
    listed = {label: (argv, fails) for label, argv, fails in tool.calls(str(tmp_path), {})}
    argv, fails = listed["mc model-I --seed 0"]
    assert not fails and argv == tool.SEEDED_MC
    at = argv.index("--seed")
    assert argv[at + 1] == "0"
    reports = []
    for call in (argv, argv[:at] + argv[at + 2:]):  # --seed 0, the preset's seed
        assert main(call) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0]["completed"] == 50 and reports[0] != reports[1]


def test_compare_outputs_compares_the_file_a_fit_writes(tmp_path):
    # the file must be whole when the process ends, which it does by
    # os._exit without the interpreter's teardown
    tool = load_tool()
    listed = {label: (argv, fails) for label, argv, fails in tool.calls(str(tmp_path), {})}
    fit = listed["fit cli-bivariate"][0]
    argv, fails = listed["fit cli-bivariate to a file"]
    out_file = str(tmp_path / tool.OUT_FILE)
    assert argv == fit + ["--out", out_file] and not fails
    src = os.path.join(os.path.dirname(os.path.dirname(TOOL)), "src")
    code, out, err, written = tool.run(src, fit, str(tmp_path))
    assert code == 0 and written == b"" and out.startswith(b"{")
    assert tool.run(src, argv, str(tmp_path)) == (0, b"", err, out)
    assert not os.path.exists(out_file)
    assert tool.first_difference((0, b"", b"", out), (0, b"", b"", out[:-1])).startswith(
        "--out file: line ")
