"""The package's lazy exports, and the cold path they keep free of numpy and of dataclasses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tpadlab

SRC = str(Path(tpadlab.__file__).resolve().parents[1])

# The five quick subcommands of the benchmark's cold-start workload: each
# is a scalar closed form and must run without importing numpy, or
# dataclasses and the inspect module it pulls in.
COLD_COMMANDS = {
    "materials": ("materials", "--list"),
    "contour": ("friction", "--model", "contour", "--freq", "30kHz"),
    "circuit": (
        "circuit", "--inductance", "28.1mH", "--capacitance", "1nF", "--resistance", "2150",
        "--c0", "9.88nF", "--voltage", "40",
    ),
    "predict-power": ("predict-power", "--reference", "Gorilla_0.8"),
    "fig11": ("repro", "fig11"),
}


@pytest.mark.parametrize("name", tpadlab.__all__)
def test_every_export_is_its_submodule_object(name):
    value = getattr(tpadlab, name)
    module = sys.modules[value.__module__]
    assert module.__name__.startswith("tpadlab.")
    assert getattr(module, name) is value
    assert vars(tpadlab)[name] is value  # cached after the first lookup


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tpadlab.no_such_name
    with pytest.raises(ImportError):
        from tpadlab import no_such_name  # noqa: F401


def test_star_import_binds_every_export():
    namespace = {}
    exec("from tpadlab import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(tpadlab.__all__)
    assert len(tpadlab.__all__) == 46
    assert set(tpadlab.__all__) <= set(dir(tpadlab))


@pytest.mark.parametrize("argv", COLD_COMMANDS.values(), ids=COLD_COMMANDS.keys())
def test_cold_command_runs_without_numpy(run_cli_child, argv):
    run = run_cli_child(*argv)
    assert (run.code, run.err) == (0, "")
    assert run.out
    assert {"numpy", "dataclasses", "inspect"}.isdisjoint(run.modules)


def test_bare_import_runs_without_numpy():
    code = "import sys, tpadlab; print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
