import importlib.util
import json
import os
import types

import numpy as np

from pvar.cli import main
from pvar.cli_models import read_model
from pvar.infer import Restriction
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
    errors = ["error no command", "error unknown command", "error fit without flags",
              "error missing data", "error model without s", "error model sigma shape",
              "error mc reps 0"]
    assert [label for label, _, _ in listed[:16]] == [
        "help pvar", "help simulate", "help fit", "help wald", "help mc", "help analytic",
        "analytic table", "analytic csv", "analytic json"] + errors
    assert [label for label, _, fails in listed if fails] == errors + [
        "error fit cli-bivariate flat kernel"]
    assert [main(argv) for _, argv, _ in listed[:16]] == [0] * 9 + [2, 2, 2, 3, 3, 3, 2]
    err = capsys.readouterr().err.splitlines()
    assert err[:3] == [
        "pvar: error: the following arguments are required: command",
        "pvar: error: argument command: invalid choice: 'fi' (choose from 'simulate', "
        "'fit', 'wald', 'mc', 'analytic')",
        "pvar fit: error: the following arguments are required: --data, --s"]
    assert err[3].endswith("missing.csv: [Errno 2] No such file or directory: "
                           f"'{tmp_path / 'missing.csv'}'")
    assert err[4].endswith("no-s.model: missing header key 's'")
    assert err[5].endswith("sigma.model: season 1 sigma: expected 2x2")


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


def test_compare_outputs_runs_a_wald_call_of_several_restrictions(tmp_path, capsys):
    # every other wald call tests one coefficient per season, df = 1
    tool = load_tool()
    listed = {label: (argv, fails) for label, argv, fails in tool.calls(str(tmp_path), {})}
    argv, fails = listed["wald cli-bivariate joint restrictions"]
    plain = listed["wald cli-bivariate"][0]
    assert not fails and argv[:-10] == plain[:plain.index("--restrict")]
    assert argv[-10::2] == ["--restrict"] * 5 and argv[-9::2] == list(tool.JOINT_RESTRICTIONS)
    assert "--cov" in argv and argv[argv.index("--cov") + 1] == "strong,sp,hac"
    assert main(argv) == 0
    tests = json.loads(capsys.readouterr().out)["tests"]
    assert sorted({(t["season"], t["df"]) for t in tests}) == [(1, 3), (2, 2)]
    assert {t["method"] for t in tests} == {"strong", "sp", "hac"}


def test_compare_outputs_runs_each_restriction_form_alone(tmp_path, capsys):
    # the square brackets and a nonzero target pass through no other call
    tool = load_tool()
    listed = {label: (argv, fails) for label, argv, fails in tool.calls(str(tmp_path), {})}
    assert len(listed) == 41  # 56 with the dump and the six presets' mc and simulate calls
    plain = listed["wald cli-bivariate"][0]
    for text in tool.RESTRICTION_FORMS:
        argv, fails = listed[f"wald cli-bivariate {text}"]
        assert not fails and argv == plain[:plain.index("--restrict")] + ["--restrict", text]
        assert main(argv) == 0
        tests = json.loads(capsys.readouterr().out)["tests"]
        assert [(t["season"], t["df"]) for t in tests] == [(int(text[4]), 1)] * 3


#: (season, lag, row, col, value) of every --restrict text of the tool's calls
RESTRICTED = {
    "phi[1,1](2,2)=0": (1, 1, 2, 2, 0.0), "phi[2,1](2,2)=0": (2, 1, 2, 2, 0.0),
    "phi[3,1](2,2)=0": (3, 1, 2, 2, 0.0), "phi[4,2](2,2)=0": (4, 2, 2, 2, 0.0),
    "phi[5,1](2,2)=0": (5, 1, 2, 2, 0.0), "phi[1](1,2)=0": (1, 1, 1, 2, 0.0),
    "phi[1](2,1)=0": (1, 1, 2, 1, 0.0), "phi[1](2,2)=0": (1, 1, 2, 2, 0.0),
    "phi[2](1,2)=0": (2, 1, 1, 2, 0.0), "phi[2](2,2)=0": (2, 1, 2, 2, 0.0),
    "phi[2][1,1]=0": (2, 1, 1, 1, 0.0), "phi[3,1](1,2)=0.25": (3, 1, 1, 2, 0.25)}


def test_restrictions_of_the_tool_parse_to_hand_built_coordinates(tmp_path):
    tool, seen = load_tool(), set()
    for label, argv, _ in tool.calls(str(tmp_path), {}):
        if "--restrict" not in argv:
            continue
        texts = [argv[i + 1] for i, word in enumerate(argv) if word == "--restrict"]
        seen.update(texts)
        s = int(argv[argv.index("--s") + 1])
        d = len(tool.workloads.CLI[label.split()[1]]["sigma"][0])
        orders = [int(p) for p in argv[argv.index("--order") + 1].split(",")]
        orders = orders * s if len(orders) == 1 else orders
        want = {}
        for text in texts:
            season, lag, row, col, value = RESTRICTED[text]
            want.setdefault(season, []).append(((lag - 1) * d * d + (col - 1) * d + row - 1,
                                                value))
        got = Restriction.parse(texts, s, d, orders)
        assert list(got) == sorted(want), label
        for season, targets in want.items():
            hand = Restriction.coordinates([i for i, _ in targets], d * d * orders[season - 1],
                                           values=[x for _, x in targets])
            for a, b in ((got[season].R0, hand.R0), (got[season].r0, hand.r0)):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), label
    assert seen == set(RESTRICTED)


def test_compare_outputs_reports_every_differing_call(tmp_path, monkeypatch, capsys):
    # an intended difference must not hide the calls after it, but one in
    # the scenario dump, which the mc calls read, ends the run
    tool = load_tool()
    for side in ("old", "new"):
        (tmp_path / side / "pvar").mkdir(parents=True)
        (tmp_path / side / "pvar" / "cli.py").touch()
    changed = {"first", "third"}

    def run(src, argv, tmp):
        out = "{}" if argv == tool.DUMP else argv[0]
        if os.path.basename(src) == "new" and (argv[0] in changed or "dump" in changed):
            out += "!"
        return 0, out.encode(), b"", b""

    monkeypatch.setattr(tool, "run", run)
    monkeypatch.setattr(tool, "calls", lambda tmp, scenarios: (
        (label, [label], False) for label in ("first", "second", "third")))
    sides = [str(tmp_path / "old"), str(tmp_path / "new")]
    assert tool.main(sides) == 1
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in printed if line.startswith(("same", "DIFF"))] == [
        ["same", "mc"], ["DIFFERS", "first:"], ["same", "second"], ["DIFFERS", "third:"]]
    assert "  new: third!" in printed
    changed.clear()
    assert tool.main(sides) == 0
    changed.add("dump")
    capsys.readouterr()
    assert tool.main(sides) == 1
    out = capsys.readouterr().out
    assert out.startswith("DIFFERS mc scenarios: pvar mc --dump-scenarios\n")
    assert "first" not in out and "same" not in out


PAIRS = os.path.join(os.path.dirname(TOOL), "bench_pairs.py")


def load_pairs_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(reps_per_s, correct=True, failed=0):
    """The last stdout line of a bench/run.py run on mc-size-weak."""
    return json.dumps({"correct": correct, "attempted": 200, "failed": failed,
                       "metrics": {"reps_per_s": {"value": reps_per_s, "unit": "1/s"},
                                   "call_s": {"value": 10 / reps_per_s, "unit": "s"}}})


def fake_roots(tmp_path):
    roots = [tmp_path / "parent", tmp_path / "change"]
    for root in roots:
        root.mkdir()
    with open(os.path.join(os.path.dirname(os.path.dirname(TOOL)), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        (roots[0] / "BENCHMARK.json").write_text(fh.read())
    return [str(root) for root in roots]


def test_bench_pairs_reads_the_last_line_and_passes_the_environment(monkeypatch):
    # no benchmark starts: subprocess.run is replaced
    tool = load_pairs_tool()
    monkeypatch.setenv("PVAR_PAIRS_PROBE", "1")
    seen = {}

    def fake_run(cmd, **kwargs):
        seen.update(kwargs, cmd=cmd)
        return types.SimpleNamespace(returncode=0, stderr="",
                                     stdout="BLAS threads: {}\n" + canned(500.0) + "\n\n")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    code, result, _ = tool.run_bench("/x", "mc-size-weak", 7, 8.0)
    assert code == 0 and result == json.loads(canned(500.0))
    assert seen["cmd"][1:] == ["/x/bench/run.py", "--workload", "mc-size-weak", "--seed",
                               "7", "--seconds", "8.0", "--trace", "0"]
    assert seen["cwd"] == "/x" and seen["env"]["PVAR_PAIRS_PROBE"] == "1"
    assert [tool.parse_seeds(t) for t in ("3-5", "4")] == [range(3, 6), range(4, 5)]


def test_bench_pairs_alternates_sides_and_counts_wins(tmp_path, capsys):
    tool = load_pairs_tool()
    parent, change = fake_roots(tmp_path)
    order = []

    def run(root, workload, seed, seconds):
        order.append((os.path.basename(root), seed))
        base = 500.0 + seed
        return 0, json.loads(canned(base * 1.1 if root == change else base)), ""

    assert tool.main([parent, change, "--workload", "mc-size-weak", "--seeds", "1-10",
                      "--seconds", "8"], run=run) == 0
    assert order[:4] == [("change", 1), ("parent", 1), ("parent", 2), ("change", 2)]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mc-size-weak: 10 pairs, seeds 1-10, 8 s per run"
    rate = next(line for line in lines if line.startswith("reps_per_s"))
    assert "wins 10/10" in rate and rate.endswith("gain rule holds")
    call = next(line for line in lines if line.startswith("call_s"))
    assert "wins 10/10" in call and call.endswith("gain rule holds")  # lower is better
    # a 1% gain is inside the parent's quartiles of 500..510, so no claim
    assert tool.summary("reps_per_s", "higher", [500.0 + k for k in range(1, 11)],
                        [505.05 + 1.01 * k for k in range(1, 11)]).endswith("does not hold")
    # 8 wins of 10 are too few, however wide the gap
    assert tool.summary("call_s", "lower", [1.0] * 10,
                        [0.5] * 8 + [1.0, 2.0]).endswith("does not hold")


def test_bench_pairs_refuses_an_incorrect_run_or_more_failures(tmp_path, capsys):
    tool = load_pairs_tool()
    parent, change = fake_roots(tmp_path)
    argv = [parent, change, "--workload", "mc-size-weak", "--seeds", "1-3"]
    for bad, why in ((canned(500.0, correct=False), "seed 1: the change's run is not correct"),
                     (canned(500.0, failed=1), "the change fails 0.1667% of operations")):
        def run(root, workload, seed, seconds):
            return 0, json.loads(bad if root == change and seed == 1 else canned(500.0)), ""

        assert tool.main(argv, run=run) == 1
        assert capsys.readouterr().out.startswith(f"refused: {why}")
    assert tool.main(argv, run=lambda root, *_: (2, None, "boom")) == 1
    assert "exited 2\nboom" in capsys.readouterr().out
