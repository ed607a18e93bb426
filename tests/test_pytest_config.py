"""The project's pytest settings: unknown markers, passing xfails and
escaping RuntimeWarnings fail."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _run_sample(tmp_path, source):
    """Runs ``source`` as a test file under the project's settings."""
    (tmp_path / "test_sample.py").write_text(source)
    run = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(tmp_path)]
    return subprocess.run(run, capture_output=True, text=True)


def test_misspelt_marker_and_passing_xfail_fail(tmp_path):
    proc = _run_sample(
        tmp_path,
        "import pytest\n\n"
        "@pytest.mark.acceptence\n"
        "def test_typo():\n    pass\n",
    )
    assert proc.returncode != 0
    assert "'acceptence' not found in `markers`" in proc.stdout

    proc = _run_sample(
        tmp_path,
        "import pytest\n\n"
        "@pytest.mark.xfail(reason='passes')\n"
        "def test_passes():\n    pass\n",
    )
    assert proc.returncode != 0
    assert "XPASS(strict)" in proc.stdout


def test_escaping_runtime_warning_fails(tmp_path):
    proc = _run_sample(
        tmp_path,
        "import numpy as np\n\n"
        "def test_overflows():\n    np.exp(np.array([1000.0]))\n",
    )
    assert proc.returncode != 0
    assert "RuntimeWarning: overflow encountered in exp" in proc.stdout
