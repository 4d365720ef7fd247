"""Fixtures shared by the test modules."""

import os
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
