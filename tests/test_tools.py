import importlib.util
import os

import numpy as np

from pvar.cli import read_model

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "compare_outputs.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_writes_models_the_cli_reads(tmp_path):
    tool = load_tool()
    for spec in tool.workloads.CLI.values():
        path = str(tmp_path / "m.txt")
        tool.write_model(path, spec["phi"], spec["sigma"])
        model = read_model(path)
        d = len(spec["sigma"][0])
        for v, lags in enumerate(spec["phi"]):
            want = np.asarray(lags, dtype=float).reshape(-1, d, d)
            assert np.array_equal(np.stack(model.phi[v]), want)
            assert np.array_equal(model.sigma[v], np.asarray(spec["sigma"][v]))


def test_compare_outputs_names_the_first_differing_line():
    diff = load_tool().first_difference
    same = (0, b"a\nb\n", b"")
    assert diff(same, same) is None
    assert diff(same, (2, b"", b"")) == "exit code: 0 != 2"
    assert diff(same, (0, b"a\nc\n", b"")) == "stdout: line 2\n  old: b\n  new: c"
    assert diff(same, (0, b"a\nb\n", b"w")) == "stderr: line 1\n  old: \n  new: w"
    assert diff(same, (0, b"a\n", b"")) == "stdout: line 2\n  old: b\n  new: "
