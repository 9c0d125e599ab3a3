"""The repo's pytest and hypothesis settings: a failing property test keeps its
report, and every property test runs derandomized."""

import subprocess
import sys
from pathlib import Path

from hypothesis import settings

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_failing_property_reports_its_example(tmp_path):
    # every warning is an error here; one raised while hypothesis reports a
    # failure would end the session in INTERNALERROR (exit 3) with no example
    (tmp_path / "test_failing.py").write_text(FAILING)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout


def test_property_tests_run_under_the_shared_profile():
    # tests/conftest.py loads it; each test's @settings sets only max_examples
    assert settings.default.derandomize
    assert settings.default.database is None and settings.default.deadline is None
