"""pyproject.toml promises that a mark not listed under its `markers` fails
collection. Under pytest 9 the `--strict-markers` in its `addopts` has no
effect, so the `"error"` warning filter alone enforces that; a pytest run
of a throwaway test under this repo's pyproject.toml holds the promise."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_marked(tmp_path, mark):
    """Exit code and output of pytest on one test marked `mark`, under the
    repo's pytest settings."""
    (tmp_path / "test_marked.py").write_text(
        f"import pytest\n\n\n@pytest.mark.{mark}\ndef test_marked():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_marked.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout + proc.stderr


def test_a_misspelled_mark_fails_collection(tmp_path):
    code, out = run_marked(tmp_path, "slwo")
    assert code != 0, out
    assert "ERROR collecting test_marked.py" in out, out
    assert "Unknown pytest.mark.slwo" in out, out


def test_a_listed_mark_collects(tmp_path):
    code, out = run_marked(tmp_path, "slow")
    assert code == 0, out
    assert "1 passed" in out, out
