"""Gated ruff/mypy runs: exercised where the tools exist (CI installs
them; the pinned local environment may not have them, so both tests
skip rather than fail there)."""

import pathlib
import shutil
import subprocess

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def run(cmd):
    return subprocess.run(
        cmd, cwd=REPO_ROOT, capture_output=True, text=True
    )


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    result = run(["ruff", "check", "src", "tests", "tools"])
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_allowlist():
    result = run(["mypy", "src/repro/util", "src/repro/analysis"])
    assert result.returncode == 0, result.stdout + result.stderr
