"""The project metadata resolves from pyproject.toml through setup.py."""

import pathlib
import subprocess
import sys

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_setup_py_reports_name_and_version():
    result = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["repro", "1.2.0"]
    assert repro.__version__ == "1.2.0"
