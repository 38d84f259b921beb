import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

import pvar.cli
import pvar.lrv
import pvar.mc
from pvar.cli import (_read_csv_exact, main, parse_restriction, read_csv,
                      read_model, write_csv)
from pvar.errors import DataError, NumericError, PvarError
from pvar.infer import Restriction
from pvar.model import PvarModel
from pvar.noise import NoiseSpec

MODEL_TEXT = """\
# bivariate two-season example
s = 2
d = 2

[season 1]
p = 1
phi1 = 0.3 0; 0 -0.6
sigma = 1.5 0; 0 2.5

[season 2]
p = 1
phi1 = -0.7 0; 0 0.15
sigma = 1 0; 0 0.5
"""


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text(MODEL_TEXT)
    return str(path)


def run_cli(args):
    return main(args)


def test_read_model(model_file):
    model = read_model(model_file)
    assert model.s == 2 and model.d == 2
    assert model.phi[0][0][1, 1] == pytest.approx(-0.6)
    assert model.sigma[1][1, 1] == pytest.approx(0.5)


def test_read_model_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("s = 2\nd = 2\n[season 1]\np = 1\nphi1 = 1 0; 0\nsigma = 1 0; 0 1\n")
    with pytest.raises(DataError, match="bad.txt: season 1 phi1: ragged matrix literal"):
        read_model(str(bad))
    with pytest.raises(DataError, match="missing.txt: .*No such file or directory"):
        read_model(str(tmp_path / "missing.txt"))


def test_csv_round_trip(tmp_path):
    data = np.random.default_rng(0).standard_normal((12, 2))
    path = tmp_path / "data.csv"
    write_csv(str(path), data)
    ser = read_csv(str(path), s=2)
    assert np.array_equal(ser.data, data)  # 17 digits round-trip exactly


def test_read_csv_header_and_truncation(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n" + "\n".join(f"{i},{i+1}" for i in range(7)) + "\n")
    ser = read_csv(str(path), s=5)
    captured = capsys.readouterr()
    assert "2 trailing rows" in captured.err
    assert ser.n_cycles == 1 and ser.d == 2


def test_read_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,x\n")
    with pytest.raises(DataError, match="row 2, column 2"):
        read_csv(str(path), s=1)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(DataError, match="empty.csv: no data rows$"):
        read_csv(str(empty), s=1)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_read_csv_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "d.csv"
    path.write_text(f"a,b\n1,2\n\n3,{cell}\n5,6\n")
    with pytest.raises(DataError, match=f"row 4, column 2: non-finite value '{cell}'"):
        read_csv(str(path), s=1)


def test_parse_restriction():
    assert parse_restriction("phi[1](2,2)=0", 5, 2, [1] * 5) == (1, 3, 0.0)
    assert parse_restriction("phi[3](1,2)=0.5", 5, 2, [1] * 5) == (3, 2, 0.5)
    assert parse_restriction("phi[2,2](1,1)=0", 5, 2, [2] * 5) == (2, 4, 0.0)
    for bad, message in (("phi[0](1,1)=0", "season 0 outside 1..5"),
                         ("phi[6](1,1)=0", "season 6 outside 1..5"),
                         ("phi[1](3,1)=0", "indices outside 1..2"),
                         ("phi[1](1,1)", "cannot parse restriction"),
                         ("phi[1,2](1,1)=0", "lag 2 outside 1..1")):
        with pytest.raises(DataError, match=re.escape(message)):
            parse_restriction(bad, 5, 2, [1] * 5)


def test_simulate_fit_pipeline(tmp_path, model_file, capsys):
    data = str(tmp_path / "sim.csv")
    assert run_cli(["simulate", "--model", model_file, "--n", "500",
                    "--seed", "3", "--out", data]) == 0
    out = str(tmp_path / "fit.json")
    assert run_cli(["fit", "--data", data, "--s", "2", "--order", "1",
                    "--no-demean", "--format", "json", "--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["command"] == "fit"
    assert len(report["seasons"]) == 2
    season = report["seasons"][0]
    assert len(season["coefficients"]) == 4
    assert len(season["sigma_tilde_vec"]) == 4
    coef = season["coefficients"][0]
    assert set(coef["std_errors"]) == {"strong", "sp", "hac"}
    assert set(coef["p_values"]) == {"strong", "sp", "hac"}
    assert set(coef) == {"lag", "row", "col", "estimate", "std_errors", "p_values"}


def test_simulate_warns_once_on_a_short_burnin(tmp_path, model_file, capsys):
    # MODEL_TEXT has companion spectral radius 0.21: 0.21**500 is far below
    # 1e-12, 0.21**0 is not
    data = tmp_path / "sim.csv"
    base = ["simulate", "--model", model_file, "--n", "20", "--out", str(data)]
    assert run_cli(base) == 0
    assert capsys.readouterr().err == ""
    default = data.read_text()
    assert run_cli(base + ["--burnin", "0"]) == 0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("warning: --burnin 0 is short") and "0.21" in err
    assert len(data.read_text().splitlines()) == len(default.splitlines()) == 40
    assert run_cli(base) == 0
    assert capsys.readouterr().err == "" and data.read_text() == default
    # a model with no lags starts in its stationary law: no warning
    white = tmp_path / "white.txt"
    white.write_text("s = 1\nd = 1\n[season 1]\np = 0\nsigma = 1\n")
    assert run_cli(["simulate", "--model", str(white), "--n", "5", "--burnin",
                    "0", "--out", str(data)]) == 0
    assert capsys.readouterr().err == ""


def test_simulate_accepts_a_stiff_causal_model(tmp_path, capsys):
    # phi0 of the stacked VAR has cond ~1e14, yet the cycle contracts by 0.1
    stiff = tmp_path / "stiff.txt"
    stiff.write_text("s = 2\nd = 1\n[season 1]\np = 1\nphi1 = 1e-8\nsigma = 1\n"
                     "[season 2]\np = 1\nphi1 = 1e7\nsigma = 1\n")
    data = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--model", str(stiff), "--n", "5", "--out",
                    str(data)]) == 0
    assert capsys.readouterr().err == ""
    assert len(data.read_text().splitlines()) == 10


def test_fit_deterministic_output(tmp_path, model_file):
    data = str(tmp_path / "sim.csv")
    run_cli(["simulate", "--model", model_file, "--n", "300", "--seed", "1",
             "--out", data])
    outs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        assert run_cli(["fit", "--data", data, "--s", "2", "--format", "json",
                        "--out", out]) == 0
        outs.append(open(out, "rb").read())
    assert outs[0] == outs[1]


def test_wald_command(tmp_path, model_file):
    data = str(tmp_path / "sim.csv")
    run_cli(["simulate", "--model", model_file, "--n", "400", "--seed", "2",
             "--out", data])
    out = str(tmp_path / "w.json")
    assert run_cli(["wald", "--data", data, "--s", "2", "--no-demean",
                    "--restrict", "phi[1](2,2)=0", "--restrict",
                    "phi[2](1,2)=0", "--format", "json", "--out", out]) == 0
    report = json.loads(open(out).read())
    tests = report["tests"]
    assert {t["season"] for t in tests} == {1, 2}
    for t in tests:
        assert t["df"] == 1
        assert 0.0 <= t["p_value"] <= 1.0


def test_wald_trivial_restriction_matches_fit(tmp_path, model_file):
    # restriction at the fitted value gives statistic 0, p-value 1
    data = str(tmp_path / "sim.csv")
    run_cli(["simulate", "--model", model_file, "--n", "300", "--seed", "4",
             "--out", data])
    fit_out = str(tmp_path / "f.json")
    run_cli(["fit", "--data", data, "--s", "2", "--no-demean",
             "--format", "json", "--out", fit_out])
    est = json.loads(open(fit_out).read())["seasons"][0]["coefficients"][3]["estimate"]
    out = str(tmp_path / "w.json")
    assert run_cli(["wald", "--data", data, "--s", "2", "--no-demean",
                    "--restrict", f"phi[1](2,2)={est!r}", "--format", "json",
                    "--out", out]) == 0
    for t in json.loads(open(out).read())["tests"]:
        assert t["p_value"] > 0.999999


def test_wald_builds_covariances_of_restricted_seasons_only(
        tmp_path, model_file, monkeypatch, capsys):
    data = str(tmp_path / "sim.csv")
    run_cli(["simulate", "--model", model_file, "--n", "300", "--seed", "5",
             "--out", data])
    searches = []
    real = pvar.lrv.select_ar_order_aic

    def counting(W, r_max, S=None):
        searches.append(r_max)
        return real(W, r_max, S)

    monkeypatch.setattr(pvar.lrv, "select_ar_order_aic", counting)
    assert run_cli(["wald", "--data", data, "--s", "2", "--restrict",
                    "phi[1](2,2)=0", "--format", "json"]) == 0
    assert len(searches) == 1
    tests = json.loads(capsys.readouterr().out)["tests"]
    assert [t["season"] for t in tests] == [1, 1, 1]


def test_bandwidth_resolved_for_every_cov(tmp_path, model_file, capsys):
    data = str(tmp_path / "sim.csv")
    run_cli(["simulate", "--model", model_file, "--n", "100", "--out", data])
    for command in (["fit"], ["wald", "--restrict", "phi[1](1,1)=0"]):
        for value in ("foo", "inf"):
            capsys.readouterr()
            assert run_cli(command + ["--data", data, "--s", "2", "--cov",
                                      "strong", "--bandwidth", value]) == 3
            err = capsys.readouterr().err
            assert err.startswith("error: --bandwidth") and err.count("\n") == 1


def test_exit_codes(tmp_path, model_file):
    # data error: missing file
    assert run_cli(["fit", "--data", str(tmp_path / "nope.csv"), "--s", "2"]) == 3
    # numerical error: noncausal model
    bad = tmp_path / "bad_model.txt"
    bad.write_text(MODEL_TEXT.replace("0.3 0; 0 -0.6", "2.0 0; 0 -0.6")
                   .replace("-0.7 0; 0 0.15", "0.6 0; 0 0.15"))
    assert run_cli(["simulate", "--model", str(bad), "--n", "10",
                    "--out", str(tmp_path / "x.csv")]) == 4
    # usage error: unknown flag (argparse exits with 2)
    proc = subprocess.run([sys.executable, "-m", "pvar.cli", "fit",
                           "--bogus"], capture_output=True)
    assert proc.returncode == 2
    # restriction parse error is a data error
    data = str(tmp_path / "sim.csv")
    run_cli(["simulate", "--model", model_file, "--n", "100", "--out", data])
    assert run_cli(["wald", "--data", data, "--s", "2", "--restrict",
                    "phi[0](1,1)=0"]) == 3


@pytest.mark.parametrize("argv,flag", [
    (["simulate", "--n", "0"], "--n"),
    (["simulate", "--n", "-3"], "--n"),
    (["simulate", "--n", "5", "--burnin", "-1"], "--burnin"),
    (["mc", "--reps", "0"], "--reps"),
    (["mc", "--n", "0"], "--n"),
    (["mc", "--reps", "many"], "--reps"),
    (["fit", "--s", "0"], "--s"),
    (["fit", "--s", "2", "--ar-order", "foo"], "--ar-order"),
    (["fit", "--s", "2", "--ar-order", "2.5"], "--ar-order"),
    (["fit", "--s", "2", "--ar-order=-1"], "--ar-order"),
    (["wald", "--s", "2", "--ar-order", "x", "--restrict", "phi[1](1,1)=0"],
     "--ar-order"),
    (["fit", "--s", "2", "--order", "foo"], "--order"),
    (["fit", "--s", "2", "--order", "1,-1"], "--order"),
    (["simulate", "--n", "5", "--m", "-3", "--noise", "strong"], "--m"),
    (["simulate", "--n", "5", "--m", "0", "--noise", "weak-product"], "--m"),
    (["simulate", "--n", "5", "--seed", "-1"], "--seed"),
    (["mc", "--reps", "1", "--n", "10", "--seed", "-1"], "--seed"),
    (["fit", "--s", "2", "--cov", ","], "--cov"),
    (["wald", "--s", "2", "--cov", ",", "--restrict", "phi[1](1,1)=0"], "--cov"),
    (["fit", "--s", "2", "--cov", "foo"], "--cov"),
    (["wald", "--s", "2", "--cov", "strong,white", "--restrict",
      "phi[1](1,1)=0"], "--cov"),
    (["fit", "--s", "2", "--cov", "hac,hac"], "--cov"),
    (["wald", "--s", "2", "--cov", "sp,strong,sp", "--restrict",
      "phi[1](1,1)=0"], "--cov"),
])
def test_bad_numeric_flags_are_usage_errors(tmp_path, model_file, argv, flag,
                                                  capsys):
    data = str(tmp_path / "sim.csv")
    assert run_cli(["simulate", "--model", model_file, "--n", "60", "--out", data]) == 0
    capsys.readouterr()
    extra = {"simulate": ["--model", model_file, "--out", str(tmp_path / "x.csv")],
             "mc": [], "fit": ["--data", data], "wald": ["--data", data]}
    assert run_cli(argv + extra[argv[0]]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not (tmp_path / "x.csv").exists()
    assert len(err.splitlines()) == 1 and flag in err


@pytest.mark.parametrize("argv,line", [
    (["fit", "--cov", "white"], "pvar fit: error: argument --cov: unknown "
     "covariance method 'white'; use strong, sp, hac"),
    (["fit", "--cov", "hac,hac"],
     "pvar fit: error: argument --cov: covariance method 'hac' repeated"),
    (["fit", "--cov", ","], "pvar fit: error: argument --cov: expected a "
     "comma-separated list of strong, sp, hac"),
    (["fit", "--kernel", "gauss"], "pvar fit: error: argument --kernel: invalid "
     "choice: 'gauss' (choose from 'bartlett', 'rect', 'parzen', 'qs')"),
    (["simulate", "--model", "m.txt", "--n", "5", "--noise", "gauss"],
     "pvar simulate: error: argument --noise: invalid choice: 'gauss' "
     "(choose from 'strong', 'weak-product')"),
    (["mc", "--scenario", "model-V"], "pvar mc: error: argument --scenario: "
     "invalid choice: 'model-V' (choose from 'model-I', 'model-II', "
     "'model-III', 'model-IV', 'dgp-strong', 'dgp-weak')"),
])
def test_unknown_vocabulary_names_are_one_line_usage_errors(argv, line, capsys):
    if argv[0] == "fit":
        argv = argv + ["--data", "sim.csv", "--s", "2"]
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", line + "\n")


def _recorded_cli_text():
    """(argv, exit code, stdout, stderr) of each entry of tests/cli_help.txt."""
    text = (pathlib.Path(__file__).parent / "cli_help.txt").read_text(encoding="utf-8")
    entries = re.findall(
        r"^\$ pvar ([^\n]*)\n# exit (\d+), stdout\n(.*?)# stderr\n(.*?)(?=^\$ |\Z)",
        text, re.M | re.S)
    return [(argv.split(" "), int(code), out, err) for argv, code, out, err in entries]


@pytest.mark.parametrize("argv,code,out,err", _recorded_cli_text(),
                         ids=[" ".join(entry[0]) for entry in _recorded_cli_text()])
def test_help_and_usage_errors_match_the_recorded_text(argv, code, out, err,
                                                       monkeypatch, capsys):
    # every --help text and the vocabulary usage errors, byte for byte
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(argv) == code
    assert capsys.readouterr() == (out, err)


def test_recorded_text_covers_every_help():
    helps = [argv for argv, _, _, _ in _recorded_cli_text() if argv[-1] == "--help"]
    assert helps == [["--help"]] + [[c, "--help"] for c in
                                    ("simulate", "fit", "wald", "mc", "analytic")]


@pytest.fixture
def weak_data(tmp_path, model_file):
    """The acceptance-6 series: MODEL_TEXT, 60 cycles of m=2 product noise."""
    data = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--model", model_file, "--n", "60", "--noise",
                    "weak-product", "--m", "2", "--seed", "11",
                    "--out", str(data)]) == 0
    return data


def _with_cell(data, line, col, cell):
    """A copy of the CSV data with one cell replaced."""
    lines = data.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[col - 1] = cell
    lines[line - 1] = ",".join(cells)
    path = data.with_name(f"bad_{cell}.csv")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _write(path, content):
    """Write bytes to path and return it as a string."""
    path.write_bytes(content)
    return str(path)


@pytest.mark.parametrize("case,code,needle", [
    ("nan-cell", 3, "row 5, column 1: non-finite value 'nan'"),
    ("inf-cell", 3, "row 7, column 2: non-finite value 'inf'"),
    ("huge-cell", 4, "error: overflow encountered"),
    ("csv-not-utf8", 3, "not_utf8.csv: 'utf-8' codec can't decode byte 0xff"),
    ("csv-under-one-cycle", 3, "one_row.csv: fewer rows than one cycle of 2"),
    ("csv-too-short-for-aic", 3,
     "error: 2 score observations are too few for the AIC order search"),
    ("csv-too-short-for-ar-order", 3,
     "error: too few score observations for the requested order"),
    ("csv-one-cycle-log-bandwidth", 3,
     "error: bandwidth rule 'log' is undefined at 1 cycles"),
    ("csv-one-cycle-log-bandwidth-strong", 3,
     "error: bandwidth rule 'log' is undefined at 1 cycles"),
    ("model-not-utf8", 3, "not_utf8.txt: 'utf-8' codec can't decode byte 0xff"),
    ("model-nan-phi", 3, "nan_model.txt: season 1 phi1: non-finite matrix entry"),
    ("model-inf-sigma", 3, "inf_model.txt: season 2 sigma: non-finite matrix entry"),
    ("fit-out", 3, "No such file or directory"),
    ("wald-out", 3, "No such file or directory"),
    ("simulate-out", 3, "No such file or directory"),
    ("analytic-m0", 2, "argument --m: must be at least 1, got 0"),
    ("analytic-m-2", 2, "argument --m: must be at least 1, got -2"),
    ("analytic-m700", 4,
     "error: --m 700 is too large: the closed forms overflow double precision"),
    ("analytic-m646", 4,
     "error: --m 646 is too large: the closed forms overflow double precision"),
    ("restrict-inf", 3, "bad value in restriction 'phi[1](1,1)=1e999'"),
    ("restrict-repeated", 3,
     "restriction 'phi[1](1,1)=0.5' repeats an earlier one's coefficient"),
    ("model-s0", 3, "s0_model.txt: s and d must be at least 1"),
    ("model-p-negative", 3, "p_model.txt: season 2: p must be at least 0"),
    ("model-season-repeated", 3,
     "repeat_model.txt: line 10: repeated [season 1] block"),
    ("model-season-outside", 3, "outside_model.txt: [season 7] outside 1..2"),
    ("model-extra-lag", 3, "lag_model.txt: season 1: unknown key 'phi2'"),
    ("model-key-typo", 3, "typo_model.txt: season 2: unknown key 'sigmaa'"),
    ("model-header-key", 3, "header_model.txt: line 4: unknown header key 'peroid'"),
    ("model-header-repeated", 3, "dup_header_model.txt: line 3: repeated key 's'"),
    ("model-key-repeated", 3, "dup_key_model.txt: line 9: repeated key 'sigma'"),
    ("mc-too-few-cycles", 3, "error: scenario 'model-I': every replication failed, "
     "the first with: season 1: 1 cycles cannot support order 1"),
])
def test_bad_input_exit_codes(tmp_path, model_file, weak_data, case, code, needle):
    data = ["--data", str(weak_data), "--s", "2"]
    unwritable = ["--out", str(tmp_path / "missing-dir" / "out.txt")]
    log_bandwidth = ["fit", "--s", "1", "--order", "0", "--bandwidth", "log",
                     "--data", _write(tmp_path / "one.csv", b"0.5\n")]
    argv = {
        "nan-cell": ["fit", "--data", _with_cell(weak_data, 5, 1, "nan"), "--s", "2"],
        "inf-cell": ["fit", "--data", _with_cell(weak_data, 7, 2, "inf"), "--s", "2"],
        "huge-cell": ["fit", "--data", _with_cell(weak_data, 3, 1, "1e300"), "--s", "2"],
        "csv-not-utf8": ["fit", "--s", "2", "--data",
                         _write(tmp_path / "not_utf8.csv", b"\xff\xfe1,2\n3,4\n")],
        "csv-under-one-cycle": ["fit", "--s", "2", "--data",
                                _write(tmp_path / "one_row.csv", b"1,2\n")],
        "csv-too-short-for-aic": ["fit", "--s", "2", "--data", _write(
            tmp_path / "short.csv", b"0.1\n0.3\n0.5\n-0.2\n0.7\n0.2\n")],
        "csv-too-short-for-ar-order": ["fit", "--s", "2", "--ar-order", "1",
                                       "--data", _write(tmp_path / "short.csv",
                                                        b"0.1\n0.3\n0.5\n-0.2\n0.7\n0.2\n")],
        "csv-one-cycle-log-bandwidth": log_bandwidth,
        "csv-one-cycle-log-bandwidth-strong": log_bandwidth + ["--cov", "strong"],
        "model-not-utf8": ["simulate", "--n", "5", "--model",
                           _write(tmp_path / "not_utf8.txt", b"\xff\xfes = 2\n")],
        "model-nan-phi": ["simulate", "--n", "5", "--model", _write(
            tmp_path / "nan_model.txt",
            MODEL_TEXT.replace("phi1 = 0.3 0", "phi1 = nan 0").encode())],
        "model-inf-sigma": ["simulate", "--n", "5", "--model", _write(
            tmp_path / "inf_model.txt",
            MODEL_TEXT.replace("0 0.5", "0 inf").encode())],
        "fit-out": ["fit"] + data + unwritable,
        "wald-out": ["wald", "--restrict", "phi[1](1,1)=0"] + data + unwritable,
        "simulate-out": ["simulate", "--model", model_file, "--n", "5"] + unwritable,
        "analytic-m0": ["analytic", "--m", "0"],
        "analytic-m-2": ["analytic", "--m", "-2"],
        "analytic-m700": ["analytic", "--m", "700"],
        "analytic-m646": ["analytic", "--m", "646"],
        "restrict-inf": ["wald", "--restrict", "phi[1](1,1)=1e999"] + data,
        "restrict-repeated": ["wald", "--restrict", "phi[1](1,1)=0",
                              "--restrict", "phi[1](1,1)=0.5"] + data,
        "model-s0": ["simulate", "--n", "5", "--model", _write(
            tmp_path / "s0_model.txt", MODEL_TEXT.replace("s = 2", "s = 0").encode())],
        "model-p-negative": ["simulate", "--n", "5", "--model", _write(
            tmp_path / "p_model.txt",
            MODEL_TEXT.replace("p = 1\nphi1 = -0.7", "p = -1\nphi1 = -0.7").encode())],
        "model-season-repeated": ["simulate", "--n", "5", "--model", _write(
            tmp_path / "repeat_model.txt",
            MODEL_TEXT.replace("[season 2]", "[season 1]").encode())],
        "model-season-outside": ["simulate", "--n", "5", "--model", _write(
            tmp_path / "outside_model.txt",
            (MODEL_TEXT + "\n[season 7]\np = 0\nsigma = 1 0; 0 1\n").encode())],
        "model-extra-lag": ["simulate", "--n", "5", "--model", _write(
            tmp_path / "lag_model.txt",
            MODEL_TEXT.replace("phi1 = 0.3 0; 0 -0.6",
                               "phi1 = 0.3 0; 0 -0.6\nphi2 = 0 0; 0 0").encode())],
        "model-key-typo": ["simulate", "--n", "5", "--model", _write(
            tmp_path / "typo_model.txt",
            MODEL_TEXT.replace("sigma = 1 0", "sigmaa = 1 0").encode())],
        "model-header-key": ["simulate", "--n", "5", "--model", _write(
            tmp_path / "header_model.txt",
            MODEL_TEXT.replace("d = 2\n", "d = 2\nperoid = 3\n").encode())],
        "model-header-repeated": ["simulate", "--n", "5", "--model", _write(
            tmp_path / "dup_header_model.txt",
            MODEL_TEXT.replace("s = 2\n", "s = 2\ns = 3\n").encode())],
        "model-key-repeated": ["simulate", "--n", "5", "--model", _write(
            tmp_path / "dup_key_model.txt",
            MODEL_TEXT.replace("sigma = 1.5 0; 0 2.5",
                               "sigma = 1.5 0; 0 2.5\nsigma = 2 0; 0 2").encode())],
        "mc-too-few-cycles": ["mc", "--scenario", "model-I", "--reps", "3", "--n", "1"],
    }[case]
    proc = subprocess.run([sys.executable, "-m", "pvar.cli"] + argv,
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert needle in proc.stderr


# Model-file text: lines of a valid file, header and season keys with
# values of their kind, and raw text.  Lag entries of at most 0.1 in
# absolute value keep any model with d, p <= 3 causal, and every sigma
# literal is symmetric positive definite, so a file that parses simulates
# (exit 0) and one that does not is a data error (exit 3).
_BAD_ENTRY = st.sampled_from(["nan", "inf", "1e999", "x", ""])


def _literal(entries):
    row = st.lists(entries, min_size=1, max_size=3).map(" ".join)
    return st.lists(row, min_size=1, max_size=3).map("; ".join)


_PHI = _literal(st.one_of(st.sampled_from(["0", "0.1", "-0.1"]), _BAD_ENTRY))
_SIGMA = st.one_of(
    st.sampled_from(["1", "2", "1 0; 0 1", "1.5 0.2; 0.2 2.5",
                     "1 0 0; 0 1 0; 0 0 1", "2 0.5 0; 0.5 1 0; 0 0 3"]),
    _literal(_BAD_ENTRY))
_INT = st.one_of(st.integers(-1, 3).map(str), st.sampled_from(["", "x", "1.5"]))
_MODEL_LINE = st.one_of(
    st.sampled_from(MODEL_TEXT.splitlines()),
    st.builds("{} = {}".format, st.sampled_from(["s", "d", "p", "peroid", ""]), _INT),
    st.builds("{} = {}".format, st.sampled_from(["phi1", "phi2", "phi3", "sigmaa"]), _PHI),
    st.builds("sigma = {}".format, _SIGMA),
    st.integers(-1, 4).map("[season {}]".format),
    st.text(alphabet="sdp=[]#;. -0123456789", max_size=16),
)


def _spliced(inserts):
    """MODEL_TEXT's lines with each (position, line) inserted."""
    lines = MODEL_TEXT.splitlines()
    for at, line in inserts:
        lines.insert(at, line)
    return lines


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(_MODEL_LINE, max_size=24),
    st.lists(st.tuples(st.integers(0, 14), _MODEL_LINE), max_size=2).map(_spliced)))
def test_model_file_either_simulates_or_is_a_data_error(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["simulate", "--model", path, "--n", "5", "--seed", "1",
                         "--out", os.path.join(tmp, "sim.csv")])
    assert code in (0, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code:
        assert len(err.getvalue().splitlines()) == 1
        assert err.getvalue().startswith(f"error: {path}")


# CSV text: seeded normal draws in float()'s shortest spelling, with lines
# spliced in or in place of them.  A spliced line mixes cells float()
# reads (in other spellings too), non-finite and non-numeric cells, and
# may be blank, a header or of another width.
_CSV_CELL = st.one_of(
    st.floats(-10, 10).map(repr),
    st.sampled_from([" 1.5", "2 ", "\t-3", "1_0", "-0", ".5", "5.", "1E+1",
                     "٣", "1e300", "5e-324"]),
    st.sampled_from(["nan", "inf", "-Infinity", "1e400", "x", "", "0x10",
                     "1__0", "y1"]),
)
_CSV_LINE = st.one_of(
    st.lists(_CSV_CELL, min_size=1, max_size=3).map(",".join),
    st.sampled_from(["", "  ", "y1,y2", "a"]),
    st.text(alphabet="0123456789.,-+eE_ ", max_size=12),
)


def _csv_lines(seed, n_rows, d, inserts):
    """Seeded normal rows with each (position, line) inserted."""
    rows = np.random.default_rng(seed).standard_normal((n_rows, d))
    lines = [",".join(map(repr, row)) for row in rows.tolist()]
    for at, line in inserts:
        lines.insert(at, line)
    return lines


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.lists(_CSV_LINE, max_size=30),
    st.builds(_csv_lines, st.integers(0, 2**16), st.integers(1, 60),
              st.integers(1, 3),
              st.lists(st.tuples(st.integers(0, 60), _CSV_LINE), max_size=2))))
def test_csv_either_fits_or_is_a_data_or_numeric_error(lines):
    # a file read_csv rejects is a data error on one stderr line naming
    # it; one it reads holds float() of each cell, the fit may then fail
    # with one error line (after any trailing-rows warning)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                data = read_csv(path, 2).data
            except DataError:
                data = None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["fit", "--data", path, "--s", "2"])
    err = err.getvalue()
    assert code in (0, 3, 4), err
    assert "Traceback" not in err
    if data is None:
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: ")
        return
    body = [ln for ln in lines if ln.strip()]
    try:
        [float(cell) for cell in body[0].split(",")]
    except ValueError:
        body = body[1:]  # header line
    ref = np.array([[float(cell) for cell in ln.split(",")] for ln in body])
    ref = ref[:len(ref) - len(ref) % 2]
    assert data.shape == ref.shape and data.tobytes() == ref.tobytes()
    if code:
        errors = [ln for ln in err.splitlines() if not ln.startswith("warning: ")]
        assert len(errors) == 1 and errors[0].startswith("error: ")


# Adversarial CSV text: cells float() reads in spellings numpy's C reader
# may not (underscores, non-ASCII digits and spaces), cells neither reads,
# NUL, a BOM, CRLF line ends, whitespace-only lines and a header after
# blank lines.
_PARITY_CELL = st.one_of(
    st.floats(-10, 10).map(repr),
    st.sampled_from(["1_0", "\u0661\u0662", "\u00a01.5", "2\u00a0", "\t-3", " 4 ",
                     "+.5", "1E+1", "1e-400", "5e-324", "-0"]))
_PARITY_BAD_CELL = st.sampled_from(["", " ", "nan", "-inf", "Infinity", "1e400",
                                    "1\x00", "\x00", "0x10", "1__0", "x",
                                    "\ufeff1"])
_PARITY_LINE = st.one_of(
    st.sampled_from(["", "  ", "\t", "\u00a0", "\x00", "y1,y2", "a", "1,2,3,4"]),
    st.lists(st.one_of(_PARITY_CELL, _PARITY_BAD_CELL), min_size=1,
             max_size=3).map(",".join))


@st.composite
def _adversarial_csv(draw):
    width = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.floats(-10, 10).map(repr), min_size=width,
                                  max_size=width), max_size=12))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):  # respell or spoil a cell
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, width - 1))] = draw(st.one_of(_PARITY_CELL,
                                                              _PARITY_BAD_CELL))
    lines = [",".join(row) for row in rows]
    for line in draw(st.lists(_PARITY_LINE, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    head = [""] * draw(st.integers(0, 2)) + draw(st.sampled_from([[], ["y1,y2"]]))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(head + lines)
    return (draw(st.sampled_from(["", "\ufeff"])) + text
            + draw(st.sampled_from(["", "\n", "\r\n"])))


@settings(max_examples=300, deadline=None)
@given(_adversarial_csv())
@example("y1,y2\n")  # header only: loadtxt warns of no data
@example("\n\ny1,y2\r\n1,2\r\n3,4")
@example("1,2\n  \n3,4\n")
@example("1_0,2\n")
def test_csv_reader_equals_its_exact_path(text):
    # read_csv gives the exact path's array bit for bit, or its DataError
    # message, with nothing on stderr and no warning
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        err = io.StringIO()
        with (contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            try:
                got = read_csv(path, 1).data
            except DataError as exc:
                got = str(exc)
        try:
            want = _read_csv_exact(path)
        except DataError as exc:
            want = str(exc)
    assert err.getvalue() == "" and caught == []
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_csv_reader_rereads_only_what_numpy_may_read_differently(tmp_path,
                                                                 monkeypatch):
    # numpy's C reader gives plain files their rows; underscores,
    # whitespace-only lines, non-finite cells and files without data rows
    # go through the exact path
    reread = []
    monkeypatch.setattr(pvar.cli, "_read_csv_exact",
                        lambda path: reread.append(path) or _read_csv_exact(path))
    path = tmp_path / "d.csv"
    for text, rows in (("a,b\n\n1,2\n3e-1,-4\n", [[1, 2], [0.3, -4]]),
                       ("\n1,2\r\n3,4", [[1, 2], [3, 4]]), ("5\n", [[5]]),
                       ("1_0,2\n", None), ("1,2\n \n", None), ("1,nan\n", None),
                       ("a,b\n", None), ("\n \n", None)):
        path.write_bytes(text.encode())
        reread.clear()
        try:
            data = read_csv(str(path), 1).data.tolist()
        except DataError:
            data = None
        assert reread == ([] if rows else [str(path)]), text
        assert rows is None or data == rows, text


def test_csv_reader_reads_a_pipe_once(tmp_path):
    # a pipe cannot be read twice, so the C reader leaves it to the exact path
    text = "y1,y2\n" + "".join(f"{i},{-i}\n" for i in range(10))
    (tmp_path / "d.csv").write_text(text)
    read, write = os.pipe()
    try:
        os.write(write, text.encode())
        os.close(write)
        data = read_csv(f"/dev/fd/{read}", 2).data
    finally:
        os.close(read)
    assert data.tobytes() == read_csv(str(tmp_path / "d.csv"), 2).data.tobytes()


# Command-line arguments of fit and wald: every flag of the two commands
# with values of its kind, perturbed values, a required flag dropped, a
# flag without its value, and unknown flags.  "<data>", "<out>" and the
# like stand for paths made in each example's directory.
_FLAG_VALUES = {  # flag: (values of its kind, perturbed values)
    "--data": (["<data>"], ["<missing>", "<dir>", ""]),
    "--s": (["1", "2", "3", "5", "7", "120", "121"], ["0", "-1", "2.5", "x", ""]),
    "--order": (["1", "0", "2", "1,0", "0,2", "1,2,1", "9", "60"],
                ["-1", "1,", "x", ""]),
    "--cov": (["strong", "sp", "hac", "strong,sp,hac", "hac,sp", " sp , hac"],
              ["hac,hac", ",", "", "white"]),
    "--kernel": (["bartlett", "rect", "parzen", "qs"], ["gauss", ""]),
    "--bandwidth": (["andrews", "log", "nw-2/9", "nw-1/4", "llsw", "full", "0.1",
                     "3", "1e-300", "5e-324", "1e300"],
                    ["0", "-0.5", "nan", "inf", "x", ""]),
    "--ar-order": (["aic", "0", "1", "3", "40"], ["-1", "2.5", "AIC", ""]),
    "--format": (["table", "csv", "json"], ["xml"]),
    "--out": (["-", "<out>"], ["<missing-dir>", "<dir>"]),
    "--restrict": (["phi[1](1,1)=0", "phi[2](2,1)=0.5", "phi[1,2](1,1)=0",
                    "phi[1](2,2)=-1e300"],
                   ["phi[3](1,1)=0", "phi[1](3,1)=0", "phi[0](1,1)=0",
                    "phi[1](1,1)=1e999", "phi(1,1)=0", ""]),
}
_KIND = st.sampled_from([(flag, value) for flag, (values, _) in _FLAG_VALUES.items()
                         for value in values])
_PERTURBED = st.sampled_from(
    [(flag, value) for flag, (_, values) in _FLAG_VALUES.items() for value in values]
    + [("--demean",), ("--no-demean",), ("--bogus",), ("--s",), ("--restrict",),
       ("extra",)])
_ARGUMENT = st.one_of(_KIND, _KIND, _KIND, _PERTURBED)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["fit", "wald"]), st.lists(_ARGUMENT, max_size=5),
       st.sampled_from([None] * 6 + ["--data", "--s", "--restrict"]))
@example("fit", [("--bandwidth", "5e-324")], None)  # its lag overflowed
@example("fit", [("--s", "120"), ("--order", "0"), ("--bandwidth", "log")],
         None)  # 1 / log(1) at one cycle
def test_arguments_either_run_or_exit_with_a_documented_code(command, arguments,
                                                             dropped):
    # any argument vector runs (exit 0, with output) or exits 2, 3 or 4
    # with one error line after any trailing-rows warning, and no traceback
    base = [("--data", "<data>"), ("--s", "2")]
    if command == "wald":
        base.append(("--restrict", "phi[1](1,1)=0"))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"<data>": os.path.join(tmp, "data.csv"),
                 "<missing>": os.path.join(tmp, "missing.csv"),
                 "<dir>": tmp, "<out>": os.path.join(tmp, "out.txt"),
                 "<missing-dir>": os.path.join(tmp, "missing", "out.txt")}
        write_csv(paths["<data>"], np.random.default_rng(5).standard_normal((120, 2)))
        argv = [command] + [paths.get(word, word) for arg in base + arguments
                            if arg[0] != dropped for word in arg]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = (os.path.isfile(paths["<out>"])
                   and os.path.getsize(paths["<out>"]) > 0)
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, err)
    assert "Traceback" not in err, argv
    errors = [ln for ln in err.splitlines()
              if not ln.startswith("warning: dropping")]
    if code:
        assert len(errors) == 1 and "error: " in errors[0], (argv, err)
        assert out.getvalue() == "" and not written, argv
    else:
        assert errors == [], (argv, err)
        assert out.getvalue() or written, argv


@pytest.mark.parametrize("error,code", [
    (DataError("bad cell"), 3), (NumericError("singular"), 4),
    (PvarError("base class"), 4), (FileNotFoundError("no such file"), 3),
    (OSError("disk full"), 3), (FloatingPointError("overflow encountered"), 4),
    (np.linalg.LinAlgError("SVD did not converge"), 4),
    (ValueError("Maximum allowed dimension exceeded"), 2),
    (OverflowError("(34, 'Numerical result out of range')"), 4),
])
def test_exception_class_decides_the_exit_code(monkeypatch, capsys, error, code):
    def failing(args):
        raise error

    monkeypatch.setattr(pvar.cli, "cmd_analytic", failing)
    assert main(["analytic"]) == code
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {error}\n"


def test_linalg_error_is_a_numeric_error(weak_data, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(pvar.cli, "fit_ols", failing)
    assert run_cli(["fit", "--data", str(weak_data), "--s", "2"]) == 4
    assert capsys.readouterr().err == "error: SVD did not converge\n"


def test_order_zero_season_under_spectral_cov(tmp_path, weak_data):
    # a p=0 season has no coefficients; the sp estimator must not fail on it
    outs = {}
    for cov in ("strong,sp,hac", "strong,hac"):
        out = tmp_path / f"{cov}.json"
        assert run_cli(["fit", "--data", str(weak_data), "--s", "2", "--order",
                        "1,0", "--cov", cov, "--format", "json",
                        "--out", str(out)]) == 0
        outs[cov] = json.loads(out.read_text())
    seasons = outs["strong,sp,hac"]["seasons"]
    assert outs["strong,sp,hac"]["orders"] == [1, 0]
    assert len(seasons[0]["coefficients"]) == 4 and seasons[1]["coefficients"] == []
    for full, part in zip(seasons[0]["coefficients"],
                          outs["strong,hac"]["seasons"][0]["coefficients"]):
        assert set(full["std_errors"]) == {"strong", "sp", "hac"}
        for key in ("strong", "hac"):
            assert full["std_errors"][key] == part["std_errors"][key]


def test_import_loads_no_scipy():
    code = ("import sys, pvar.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_ar_order_accepts_aic_and_nonnegative_integers(tmp_path, model_file):
    data = str(tmp_path / "sim.csv")
    run_cli(["simulate", "--model", model_file, "--n", "200", "--out", data])
    for order in ("aic", "0", "2", "12"):  # 12: past the HAC lag and r_max
        assert run_cli(["fit", "--data", data, "--s", "2", "--cov", "sp",
                        "--ar-order", order, "--format", "json",
                        "--out", str(tmp_path / f"{order}.json")]) == 0


def test_mc_dump_scenarios(tmp_path):
    out = str(tmp_path / "sc.json")
    assert run_cli(["mc", "--dump-scenarios", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert set(payload) == {"model-I", "model-II", "model-III", "model-IV",
                            "dgp-strong", "dgp-weak"}
    assert payload["model-II"]["noise"] == "weak-product"
    assert payload["model-III"]["phi22"] == [0.05] * 5
    assert {name: sc["bandwidth"] for name, sc in payload.items()} == {
        "model-I": 1 / 21, "model-II": 1 / 21, "model-III": 1 / 12,
        "model-IV": 1 / 12, "dgp-strong": 1 / 21, "dgp-weak": 1 / 21}


def test_mc_command_small(tmp_path):
    out = str(tmp_path / "mc.json")
    assert run_cli(["mc", "--scenario", "model-I", "--reps", "5", "--n", "200",
                    "--seed", "1", "--format", "json", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["completed"] == 5
    assert payload["failures"] == 0


def test_mc_json_reports_standard_errors_and_failure_reasons(tmp_path, monkeypatch):
    # product noise of 301 normals underflows the score moments on some seeds
    model = PvarModel(s=1, d=1, phi=[[np.array([[0.3]])]], sigma=[np.eye(1)])
    scenario = pvar.mc.Scenario(
        "heavy-tailed", model, NoiseSpec("weak-product", m=300), 40, 30,
        restrictions=[Restriction.coordinates([0], 1)], bandwidth=0.2)
    monkeypatch.setattr(pvar.mc, "preset", lambda *args, **kwargs: scenario)
    out = str(tmp_path / "mc.json")
    assert run_cli(["mc", "--format", "json", "--out", out]) == 0
    report = pvar.mc.run_scenario(scenario)
    payload = json.loads(open(out).read())
    completed = payload["completed"]
    assert 0 < payload["failures"] < 30 and completed + payload["failures"] == 30
    assert payload["failure_reasons"] == [
        {"class": cls, "message": msg, "count": count}
        for (cls, msg), count in report.failure_reasons.items()]
    assert sum(r["count"] for r in payload["failure_reasons"]) == payload["failures"]
    assert {r["class"] for r in payload["failure_reasons"]} == {"NumericError"}
    for row in payload["rejection"]:
        p = row["rejection"]
        assert row["mc_se"] == math.sqrt(p * (1 - p) / completed)


def test_mc_json_without_failures_has_no_reasons(tmp_path):
    out = str(tmp_path / "mc.json")
    assert run_cli(["mc", "--scenario", "model-II", "--reps", "12", "--n", "200",
                    "--format", "json", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["failure_reasons"] == []
    ses = [row["mc_se"] for row in payload["rejection"]]
    assert all(se == math.sqrt(row["rejection"] * (1 - row["rejection"]) / 12)
               for se, row in zip(ses, payload["rejection"]))
    assert max(ses) > 0


@pytest.mark.parametrize("n", [3, 8])
def test_mc_completes_where_the_lag_gram_would_lose_rank(tmp_path, n):
    # model-I's 4-entry scores give a default_r_max(n) lag Gram fewer rows
    # than columns, so the AIC search stops at n // 5 and every replication
    # completes
    out = str(tmp_path / "mc.json")
    assert run_cli(["mc", "--scenario", "model-I", "--reps", "3", "--n", str(n),
                    "--format", "json", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["completed"] == 3 and payload["failures"] == 0


def test_analytic_command_json(tmp_path):
    out = str(tmp_path / "an.json")
    assert run_cli(["analytic", "--m", "2", "--format", "json", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["m"] == 2
    assert payload["theta"]["1"] == pytest.approx([2.48, 1.40, 2.68, 13.32],
                                                  abs=0.01)


def test_analytic_determinism(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run_cli(["analytic", "--m", "1", "--format", "json", "--out", a])
    run_cli(["analytic", "--m", "1", "--format", "json", "--out", b])
    assert open(a, "rb").read() == open(b, "rb").read()
