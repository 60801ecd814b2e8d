"""The repo's pytest settings, run on a deliberately failing Hypothesis property."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_property(n):
    assert n < 5
"""

LATER_TEST = """
def test_later():
    pass
"""


def test_failing_property_is_reported_and_later_tests_run(tmp_path):
    # every warning is an error, so one raised while Hypothesis writes its failure
    # report would end the session with INTERNALERROR before the example is shown
    (tmp_path / "test_a_property.py").write_text(FAILING_PROPERTY)
    (tmp_path / "test_b_later.py").write_text(LATER_TEST)
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_a_property.py", "test_b_later.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = child.stdout + child.stderr
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
