"""The repo's pytest settings report a failing property test like any other failure."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def _files(root: Path) -> set:
    out = set()
    for d, dirs, files in os.walk(root):
        dirs[:] = [x for x in dirs if x != ".git"]
        out.update(os.path.relpath(os.path.join(d, f), root) for f in files)
    return out


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    # warnings are errors, and the hypothesis plugin's report of a failure
    # imports a module that warns; the run must still end in a normal report
    (tmp_path / "test_tiny.py").write_text(FAILING_PROPERTY)
    before = _files(REPO)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path), "test_tiny.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "Falsifying example: test_fails(" in out
    assert _files(REPO) == before
