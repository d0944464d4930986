"""The suite's pytest configuration (``pyproject.toml``)."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_ten(x):
    assert x < 10
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # every warning is an error, and hypothesis's failure report touches
    # deprecated API: the report must still print, and pytest exit 1 for a
    # failed test rather than 3 for an INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
