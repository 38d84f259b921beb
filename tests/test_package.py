import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import pvar
from pvar.cli import write_csv
from pvar.lrv import COV_METHODS, KERNEL_KINDS
from pvar.mc import PRESETS
from pvar.noise import NOISE_KINDS

SOURCE = pathlib.Path(pvar.__file__).parent


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
    # the CLI reads each vocabulary from the table of the module that owns it
    names = {*COV_METHODS, *KERNEL_KINDS, *NOISE_KINDS, *PRESETS}
    tree = ast.parse((SOURCE / "cli.py").read_text())
    defaults = {id(node.value) for node in ast.walk(tree)
                if isinstance(node, ast.keyword) and node.arg == "default"}
    spelled = [f"cli.py:{node.lineno}" for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and node.value in names
               and id(node) not in defaults]
    assert spelled == []


# modules a fit or wald call never runs: cli imports them inside the
# commands that do, and the package on first use of one of their names
UNUSED_BY_FIT = ("pvar.mc", "pvar.noise", "pvar.oracle", "pvar.analytic")


def test_fit_and_wald_load_no_simulation_or_reference_module(tmp_path):
    data, out = str(tmp_path / "data.csv"), str(tmp_path / "out.json")
    write_csv(data, np.random.default_rng(3).standard_normal((200, 2)))
    common = ["--data", data, "--s", "2", "--format", "json", "--out", out]
    code = f"""if True:
        import json, sys
        import pvar
        bare = [m for m in {UNUSED_BY_FIT!r} if m in sys.modules]
        from pvar.cli import main
        codes = [main(["fit"] + {common!r}),
                 main(["wald", "--restrict", "phi[1](1,1)=0"] + {common!r})]
        called = [m for m in {UNUSED_BY_FIT!r} if m in sys.modules]
        print(json.dumps([bare, codes, called, pvar.simulate is pvar.noise.simulate]))
    """
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=env)
    assert json.loads(proc.stdout) == [[], [0, 0], [], True]


def test_cli_imports_no_simulation_or_reference_module_at_module_level():
    unused = {name.split(".")[1] for name in UNUSED_BY_FIT}
    tree = ast.parse((SOURCE / "cli.py").read_text())
    stack, imported = list(tree.body), []
    while stack:  # every statement but those inside a function
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ImportFrom):
            imported += [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        stack.extend(ast.iter_child_nodes(node))
    assert imported and not {name.split(".")[-1] for name in imported} & unused
