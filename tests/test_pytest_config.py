"""The project's pytest settings: unknown markers and passing xfails fail."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_misspelt_marker_and_passing_xfail_fail(tmp_path):
    (tmp_path / "test_sample.py").write_text(
        "import pytest\n\n"
        "@pytest.mark.acceptence\n"
        "def test_typo():\n    pass\n"
    )
    run = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)]
    proc = subprocess.run(run, capture_output=True, text=True)
    assert proc.returncode != 0
    assert "'acceptence' not found in `markers`" in proc.stdout

    (tmp_path / "test_sample.py").write_text(
        "import pytest\n\n"
        "@pytest.mark.xfail(reason='passes')\n"
        "def test_passes():\n    pass\n"
    )
    proc = subprocess.run(run, capture_output=True, text=True)
    assert proc.returncode != 0
    assert "XPASS(strict)" in proc.stdout
