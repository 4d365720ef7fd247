"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import homcount

_SRC = str(Path(homcount.__file__).resolve().parents[1])  # the directory that holds the package under test


@pytest.fixture
def fresh_env():
    """env(**extra): the environment of a fresh interpreter that imports this checkout's package, i.e.
    os.environ with the package's directory first on PYTHONPATH, plus the `extra` variables."""

    def env(**extra: str) -> dict:
        path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
        return {**os.environ, "PYTHONPATH": path, **extra}

    return env


@pytest.fixture
def run_python(fresh_env):
    """run(code): the stdout of `code` run with -c in a fresh interpreter with fresh_env(); an exit other
    than 0 fails the test."""

    def run(code: str) -> str:
        return subprocess.run([sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True,
                              check=True).stdout

    return run
