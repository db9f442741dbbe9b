"""The suite's pytest configuration reports a failing hypothesis test.

`filterwarnings = ["error"]` in pyproject.toml turns every warning into an
error.  On a failure, hypothesis's pytest plugin writes a patch of the
failing example through libcst, whose import warns about
`mypy_extensions.TypedDict`; unfiltered, that warning aborts the session
with INTERNALERROR and hides the failure and every later test.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_a_failing_hypothesis_example_is_reported_not_internal(tmp_path):
    (tmp_path / "test_child.py").write_text(CHILD)
    # cwd is tmp_path, so hypothesis's .hypothesis/ directory lands there
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c",
         os.path.join(REPO, "pyproject.toml"), "test_child.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "1 failed" in out and "1 passed" in out
    assert "INTERNALERROR" not in out
