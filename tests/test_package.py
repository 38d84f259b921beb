import ast
import pathlib

import pvar
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
