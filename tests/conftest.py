import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from tpadlab import cli

# Every property test: no example database on disk, and no per-example
# deadline (an example may run the CLI or an FFT); each test sets its own
# max_examples.
settings.register_profile("tpadlab", database=None, deadline=None)
settings.load_profile("tpadlab")

SRC = str(Path(cli.__file__).resolve().parents[1])

# ``python -m tpadlab.cli ARGV...`` as a child runs it, which then writes
# the names in its sys.modules, as JSON, to the path given before ARGV.
_CHILD = """
import json, runpy, sys
modules_out = sys.argv.pop(1)
try:
    runpy.run_module("tpadlab.cli", run_name="__main__", alter_sys=True)
finally:
    with open(modules_out, "w", encoding="utf-8") as handle:
        json.dump(sorted(sys.modules), handle)
"""

ChildRun = collections.namedtuple("ChildRun", "code out err modules")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory shared by the examples of a module's property tests (function-scoped
    ``tmp_path`` would be shared across examples anyway, and Hypothesis rejects it)."""
    return tmp_path_factory.mktemp("scratch")


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""

    def run(*argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        return code, capsys.readouterr().out

    return run


@pytest.fixture
def run_cli_child(tmp_path):
    """Run the CLI in a fresh interpreter; returns a ChildRun (exit code, stdout, stderr, module names)."""

    def run(*argv):
        modules_out = tmp_path / "modules.json"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(modules_out), *argv],
            env=env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=60,
        )
        modules = json.loads(modules_out.read_text(encoding="utf-8"))
        return ChildRun(proc.returncode, proc.stdout, proc.stderr, modules)

    return run
