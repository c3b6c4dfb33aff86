import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


@pytest.mark.skipif(
    importlib.util.find_spec("libcst") is None,
    reason="Hypothesis imports libcst only when it is installed",
)
def test_failing_property_reports_its_example(tmp_path):
    """Under the project's warning filters, a failing Hypothesis test ends in
    a failure with its falsifying example, not in INTERNALERROR: Hypothesis's
    report hook imports libcst, whose import raises a DeprecationWarning."""
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-p", "no:benchmark", "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


def test_misspelt_marker_and_passing_xfail_fail_the_run(tmp_path):
    """Under the project's settings a marker that is not registered is a
    collection error, and an xfail that passes fails the run, strict or not."""
    (tmp_path / "test_marker.py").write_text(
        "import pytest\n\n\n@pytest.mark.xfial\ndef test_typo():\n    pass\n", encoding="utf-8"
    )
    (tmp_path / "test_xpass.py").write_text(
        "import pytest\n\n\n@pytest.mark.xfail\ndef test_fixed():\n    pass\n", encoding="utf-8"
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-p", "no:benchmark", "--continue-on-collection-errors", "test_marker.py", "test_xpass.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "1 failed, 1 error" in out
    assert "xfial" in out
    assert "test_fixed - [XPASS(strict)]" in out
