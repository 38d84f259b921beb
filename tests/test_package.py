import ast
import inspect
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import pvar
from pvar.analytic import DiagExampleParams
from pvar.cli_models import write_csv
from pvar.estimate import PeriodicSeries, fit_ols
from pvar.infer import Restriction, chisq_sf, t_report, wald
from pvar.linalg import vec
from pvar.lrv import (BANDWIDTH_RULES, COV_METHODS, KERNEL_KINDS, KernelSpec,
                      default_bandwidth, score_series, select_ar_order_aic, theta_sandwich)
from pvar.mc import PRESETS, Scenario
from pvar.model import PvarModel
from pvar.noise import NOISE_KINDS, NoiseSpec, colour_matrix, gen_noise, simulate

SOURCE = pathlib.Path(pvar.__file__).parent
CLI_FILES = ("cli.py", "cli_models.py")  # all of the command-line code


def test_all_names_resolve_and_star_import_succeeds():
    missing = [name for name in pvar.__all__ if not hasattr(pvar, name)]
    assert missing == []
    namespace = {}
    exec("from pvar import *", namespace)
    assert set(pvar.__all__) <= set(namespace)


def test_one_error_class_per_exit_code():
    tree = ast.parse((SOURCE / "errors.py").read_text())
    classes = {node.name: [base.id for base in node.bases]
               for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {"PvarError": ["Exception"], "DataError": ["PvarError"],
                       "NumericError": ["PvarError"]}


def test_every_raise_names_a_package_error_or_value_error():
    allowed = {"DataError", "NumericError", "ValueError", "argparse.ArgumentTypeError"}
    raised = {}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc:  # not a bare re-raise
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.setdefault(ast.unparse(exc), []).append(f"{path.name}:{node.lineno}")
    # the one exception: the package's module __getattr__ (PEP 562) must
    # raise AttributeError for a name it does not define
    where = [at.split(":")[0] for at in raised.pop("AttributeError", [])]
    assert where == ["__init__.py"]
    assert set(raised) <= allowed, {k: v for k, v in raised.items() if k not in allowed}
    assert {"DataError", "NumericError", "ValueError"} <= set(raised)


def test_cli_spells_no_method_kernel_noise_or_preset_name():
    # the CLI reads each vocabulary from the table of the module that owns
    # it, and neither the CLI nor mc names a bandwidth rule: the default
    # one is default_bandwidth's
    names = {*COV_METHODS, *KERNEL_KINDS, *NOISE_KINDS, *PRESETS, *BANDWIDTH_RULES}
    spelled = []
    for path, vocabulary in [(path, names) for path in CLI_FILES] + [
            ("mc.py", set(BANDWIDTH_RULES))]:
        tree = ast.parse((SOURCE / path).read_text())
        defaults = {id(node.value) for node in ast.walk(tree)
                    if isinstance(node, ast.keyword) and node.arg == "default"}
        spelled += [f"{path}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and node.value in vocabulary
                    and id(node) not in defaults]
    assert spelled == []


# modules a fit or wald call never runs: the CLI imports them inside the
# commands that do, and the package on first use of one of their names;
# dataclasses is not used on the fit path, whose records are plain classes
UNUSED_BY_FIT = ("pvar.mc", "pvar.noise", "pvar.oracle", "pvar.analytic",
                 "pvar.model", "pvar.cli_models", "dataclasses")


def test_fit_and_wald_load_no_simulation_or_reference_module(tmp_path):
    data, out = str(tmp_path / "data.csv"), str(tmp_path / "out.json")
    write_csv(data, np.random.default_rng(3).standard_normal((200, 2)))
    common = ["--data", data, "--s", "2", "--out", out]
    as_json = ["--format", "json"]
    code = f"""if True:
        import sys
        import pvar
        bare = [m for m in {UNUSED_BY_FIT!r} if m in sys.modules]
        from pvar.cli import main
        bare += [m for m in {UNUSED_BY_FIT!r} if m in sys.modules]
        codes = [main(["fit"] + {common!r})]
        table = "json" in sys.modules  # only --format json needs it
        codes += [main(["fit"] + {common + as_json!r}),
                  main(["wald", "--restrict", "phi[1](1,1)=0"] + {common + as_json!r})]
        called = [m for m in {UNUSED_BY_FIT!r} if m in sys.modules]
        print(repr([bare, codes, table, called, pvar.simulate is pvar.noise.simulate]))
    """
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert ast.literal_eval(proc.stdout) == [[], [0, 0, 0], False, [], True]


def test_cli_imports_no_simulation_or_reference_module_at_module_level():
    unused = {name.split(".")[-1] for name in UNUSED_BY_FIT}
    for path in CLI_FILES:
        stack, imported = list(ast.parse((SOURCE / path).read_text()).body), []
        while stack:  # every statement but those inside a function
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.ImportFrom):
                imported += [node.module] if node.module else [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                imported += [a.name for a in node.names]
            stack.extend(ast.iter_child_nodes(node))
        assert imported and not {name.split(".")[-1] for name in imported} & unused, path


class Reached(Exception):
    """Raised in place of a callable's first work: its checks have passed."""


def reached(*args, **kwargs):
    raise Reached


class NoDraws:
    """A random generator whose first draw is Reached."""
    standard_normal = staticmethod(reached)


AR1 = PvarModel(s=1, d=1, phi=[[[[0.5]]]], sigma=[[[1.0]]])
SEASON = (np.zeros(4), {"strong": np.eye(4)})  # beta and Theta of d = 2, p = 1


def row(name, arg, least, good, call, work=None, label=""):
    """A case of the table below: callable name (Class.method for a
    method), argument, its least value (None for a bandwidth, a finite
    real above 0), a valid value, a call that passes the value, and the
    function, if any, that holds the call's first work."""
    return pytest.param(name, arg, least, good, call, work, id=f"{name}-{arg}{label}")


#: One case per (public callable, argument) whose count, seed, df or
#: bandwidth pvar.errors checks, where the parent code failed without a
#: ValueError naming it, or not at all.
ARGUMENTS = [
    row("wald", "n", 1, 250, lambda v: wald(SEASON[0], np.eye(4), v,
                                            Restriction.coordinates([3], 4)),
        "pvar.infer.solve_guarded"),
    row("t_report", "d", 1, 2, lambda v: t_report(v, *SEASON, 250), "pvar.infer.normal_sf"),
    row("t_report", "n", 1, 250, lambda v: t_report(2, *SEASON, v), "pvar.infer.normal_sf"),
    row("Restriction.coordinates", "n_coef", 0, 4,
        lambda v: Restriction.coordinates([0], v)),
    row("Restriction.parse", "s", 1, 5,
        lambda v: Restriction.parse(["phi[1](1,1)=0"], v, 2, [1] * 5),
        "pvar.infer.re.fullmatch"),
    row("Restriction.parse", "d", 1, 2,
        lambda v: Restriction.parse(["phi[1](1,1)=0"], 5, v, [1] * 5),
        "pvar.infer.re.fullmatch"),
    row("theta_sandwich", "d", 1, 2, lambda v: theta_sandwich(np.eye(2), np.eye(4), v),
        "pvar.lrv._kron"),
    row("default_bandwidth", "n", 1, 1000, default_bandwidth, "pvar.lrv.default_r_max"),
    row("KernelSpec", "bandwidth", None, 0.1, lambda v: KernelSpec("bartlett", v)),
    row("gen_noise", "n_cycles", 1, 10,
        lambda v: gen_noise(colour_matrix([np.eye(2)]), v, NoiseSpec(), NoDraws())),
    row("simulate", "seed", 0, 7, lambda v: simulate(AR1, 10, seed=v), "pvar.noise._plan"),
    row("simulate", "seed", 0, 7, lambda v: simulate(AR1, 10, seed=[1, v]),
        "pvar.noise._plan", "-in-a-list"),
    row("Scenario", "base_seed", 0, 7,
        lambda v: Scenario("s", AR1, NoiseSpec(), 10, 1, base_seed=v)),
    row("Scenario", "bandwidth", None, 0.1,
        lambda v: Scenario("s", AR1, NoiseSpec(), 10, 1, bandwidth=v)),
    row("DiagExampleParams", "m", 0, 2, lambda v: DiagExampleParams(m=v)),
    row("chisq_sf", "df", 1, 3, lambda v: chisq_sf(3.0, v)),
]


@pytest.mark.parametrize("name, arg, least, good, call, work", ARGUMENTS)
def test_counts_seeds_and_bandwidths_are_checked_before_any_work(
        monkeypatch, name, arg, least, good, call, work):
    if work:
        monkeypatch.setattr(work, reached)
    if least is None:
        bad, numpy_type = (True, "0.1", 0.0, -1.0, math.nan, math.inf), np.float64
    else:
        bad, numpy_type = (True, 2.5, "1", least - 1), np.int64
    for value in bad:
        with pytest.raises(ValueError, match=rf"^{re.escape(arg)} must be "):
            call(value)
    for value in (good, numpy_type(good)):
        try:
            call(value)
        except Reached:
            pass


@pytest.mark.parametrize("call, message", [
    (lambda: fit_ols(PeriodicSeries(2, np.zeros((8, 1))), [1, 1, 1]),
     "need one order per season"),
    (lambda: Restriction(np.eye(2), np.zeros(3)), "R0 and r0 disagree on the restriction count"),
    (lambda: wald(np.zeros(4), np.eye(4), 10, Restriction.coordinates([0], 3)),
     "restriction width does not match the parameter count"),
    (lambda: vec(np.zeros(3)), "vec expects a matrix or a stack of matrices"),
    (lambda: score_series(np.zeros((2, 5)), np.zeros((1, 4))),
     "regressors and residuals disagree on N"),
    (lambda: select_ar_order_aic(np.zeros((10, 2)), 5), "r_max must be below N/2"),
    (lambda: PvarModel(1, 2, [[np.eye(2)]], [np.eye(3)]), "covariances must be d x d"),
    (lambda: Restriction.parse(["phi[3](1,1)=0"], 3, 2, [1]), "need one order per season"),
], ids=["fit_ols-orders", "Restriction-r0", "wald-restriction", "vec-ndim",
        "score_series-N", "select_ar_order_aic-r_max", "PvarModel-sigma",
        "Restriction.parse-orders"])
def test_arguments_whose_shapes_disagree_are_value_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


#: The arguments that count, seed, set a bandwidth or give degrees of freedom.
CHECKED_NAMES = {"n", "n_cycles", "n_coef", "d", "s", "m", "reps", "burnin",
                 "r_max", "seed", "base_seed", "bandwidth", "df"}

#: (callable, argument) pairs that ARGUMENTS leaves out, each with why.
EXEMPT = {
    ("FitResult", "s"): "a record that fit_ols fills from a checked PeriodicSeries",
    ("FitResult", "d"): "a record that fit_ols fills from a checked PeriodicSeries",
    ("McReport", "reps"): "a record that run_scenario fills from a checked Scenario",
    ("WaldResult", "df"): "a record that wald fills with its restriction's row count",
    ("PeriodicSeries", "s"): "checked before: test_estimate.py::"
                             "test_periodic_series_rejects_a_period_that_is_not_a_positive_integer",
    ("PvarModel", "s"): "checked before: test_model.py::test_model_validation",
    ("PvarModel", "d"): "checked before: test_model.py::test_model_validation",
    ("NoiseSpec", "m"): "checked before: test_noise.py::test_noise_spec_validation",
    ("simulate", "n_cycles"): "checked before: test_noise.py::"
                              "test_simulate_rejects_bad_arguments_before_any_work",
    ("simulate", "burnin"): "checked before: test_noise.py::"
                            "test_simulate_rejects_bad_arguments_before_any_work",
    ("Scenario", "n_cycles"): "checked before: test_mc.py::"
                              "test_scenario_rejects_counts_that_are_not_integers",
    ("Scenario", "reps"): "checked before: test_mc.py::"
                          "test_scenario_rejects_counts_that_are_not_integers",
    ("select_ar_order_aic", "r_max"): "checked before: test_lrv.py::"
                                      "test_select_ar_order_aic_rejects_an_r_max_that_is_not_an_integer",
    ("preset", "n_cycles"): "None for the preset's value, else passed to Scenario",
    ("preset", "reps"): "None for the preset's value, else passed to Scenario",
    ("preset", "base_seed"): "None for the preset's value, else passed to Scenario",
    ("example_model", "m"): "passed to DiagExampleParams and NoiseSpec, which check it",
}


def public_signatures():
    """(name, signature) of each callable in pvar.__all__: functions, class
    constructors and the public methods of a class, as Class.method."""
    for name in pvar.__all__:
        obj = getattr(pvar, name)
        if inspect.ismodule(obj) or not callable(obj):
            continue
        yield name, inspect.signature(obj)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and callable(getattr(obj, attr)):
                    yield f"{name}.{attr}", inspect.signature(getattr(obj, attr))


def test_every_count_seed_and_bandwidth_argument_is_in_the_table_or_exempt():
    found = {(name, arg) for name, sig in public_signatures()
             for arg in sig.parameters if arg in CHECKED_NAMES}
    rows = {tuple(case.values[:2]) for case in ARGUMENTS}
    assert found - rows - set(EXEMPT) == set()
    assert (rows | set(EXEMPT)) - found == set()  # no stale entry
    assert not rows & set(EXEMPT) and all(EXEMPT.values())
