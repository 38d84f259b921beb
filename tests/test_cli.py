import json
import subprocess
import sys

import numpy as np
import pytest

import pvar.lrv
from pvar.cli import (main, parse_restriction, read_csv, read_model,
                      write_csv)
from pvar.errors import (EmptyInput, ParseError, RestrictionParseError)

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
    with pytest.raises(ParseError):
        read_model(str(bad))
    with pytest.raises(ParseError):
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
    with pytest.raises(ParseError, match="row 2, column 2"):
        read_csv(str(path), s=1)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(EmptyInput):
        read_csv(str(empty), s=1)


def test_parse_restriction():
    assert parse_restriction("phi[1](2,2)=0", 5, 2, [1] * 5) == (1, 3, 0.0)
    assert parse_restriction("phi[3](1,2)=0.5", 5, 2, [1] * 5) == (3, 2, 0.5)
    assert parse_restriction("phi[2,2](1,1)=0", 5, 2, [2] * 5) == (2, 4, 0.0)
    for bad in ("phi[0](1,1)=0", "phi[6](1,1)=0", "phi[1](3,1)=0",
                "phi[1](1,1)", "phi[1,2](1,1)=0"):
        with pytest.raises(RestrictionParseError):
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
    assert set(coef["p_values_wald"]) == {"strong", "sp", "hac"}


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

    def counting(W, r_max):
        searches.append(r_max)
        return real(W, r_max)

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
        capsys.readouterr()
        assert run_cli(command + ["--data", data, "--s", "2", "--cov", "strong",
                                  "--bandwidth", "foo"]) == 3
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


def test_mc_dump_scenarios(tmp_path):
    out = str(tmp_path / "sc.json")
    assert run_cli(["mc", "--dump-scenarios", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert set(payload) == {"model-I", "model-II", "model-III", "model-IV",
                            "dgp-strong", "dgp-weak"}
    assert payload["model-II"]["noise"] == "weak-product"
    assert payload["model-III"]["phi22"] == [0.05] * 5


def test_mc_command_small(tmp_path):
    out = str(tmp_path / "mc.json")
    assert run_cli(["mc", "--scenario", "model-I", "--reps", "5", "--n", "200",
                    "--seed", "1", "--format", "json", "--out", out]) == 0
    payload = json.loads(open(out).read())
    assert payload["completed"] == 5
    assert payload["failures"] == 0


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
