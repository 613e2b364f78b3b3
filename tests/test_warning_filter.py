"""The suite's warning filter: every warning is an error, but for one message from a library."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# Run by a child pytest under the project's configuration.  The warnings stand
# for any that tpadlab or numpy raise; the filter matches on category and message.
CHILD_TESTS = """
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


def test_runtime_warning():
    warnings.warn("overflow encountered in multiply", RuntimeWarning)


def test_other_deprecation_warning():
    warnings.warn("some other name is deprecated", DeprecationWarning)


def test_ignored_message():
    warnings.warn("mypy_extensions.TypedDict is deprecated", DeprecationWarning)


@settings(database=None, derandomize=True)
@given(st.integers())
def test_failing_property(x):
    assert x < 10
"""


def test_warnings_fail_and_a_failing_property_reports_its_example(tmp_path):
    (tmp_path / "test_child.py").write_text(CHILD_TESTS, encoding="utf-8")
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_child.py",
        ],
        cwd=tmp_path,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out  # tests failed; 3 would be an internal error
    assert "INTERNALERROR" not in out
    assert "Falsifying example: test_failing_property(" in out
    failed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    assert failed == {
        "test_child.py::test_runtime_warning",
        "test_child.py::test_other_deprecation_warning",
        "test_child.py::test_failing_property",
    }
