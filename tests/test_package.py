"""The package surface: names resolved on first access, and a bare import that loads no module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import homcount

PACKAGE_DIR = Path(homcount.__file__).resolve().parent


def test_every_exported_name_is_its_defining_modules_object():
    assert len(homcount.__all__) == len(set(homcount.__all__)) == 42
    for name in homcount.__all__:
        value = getattr(homcount, name)
        defining = importlib.import_module(f"homcount.{homcount._ORIGIN[name]}")
        assert value is getattr(defining, name), name
        assert name in dir(homcount)


def test_every_submodule_resolves_as_an_attribute():
    names = {path.stem for path in PACKAGE_DIR.glob("*.py")} - {"__init__", "__main__"}
    for name in names:
        assert getattr(homcount, name) is importlib.import_module(f"homcount.{name}"), name


def test_the_cap_keeps_its_old_import_path():
    from homcount import enumeration, kernel

    for name in ("DEFAULT_CAP", "BruteForceCapError", "brute_force_cap", "check_cap"):
        assert getattr(enumeration, name) is getattr(kernel, name), name
    assert homcount.BruteForceCapError is kernel.BruteForceCapError


def test_dir_lists_every_public_name_and_module_file():
    listed = set(dir(homcount))
    assert set(homcount.__all__) <= listed
    module_files = {path.stem for path in PACKAGE_DIR.glob("*.py")}
    assert module_files - {"__init__", "__main__"} <= listed
    assert "__main__" not in listed


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        homcount.no_such_name


def _fresh(code):
    src = str(PACKAGE_DIR.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_submodule_attribute_after_a_bare_import():
    assert _fresh("import homcount\nprint(homcount.counting.count_I(3))\n") == "71\n"


def test_main_is_never_an_attribute():
    # stderr joins stdout, so a CLI run by importing __main__ (usage text, exit 2) would show or fail here
    code = ("import sys\nsys.stderr = sys.stdout\nimport homcount\n"
            "print(hasattr(homcount, '__main__'), hasattr(homcount, 'a.b'))\n")
    assert _fresh(code) == "False False\n"


def test_bare_import_loads_no_submodule():
    code = "import sys\nimport homcount\nprint(*sorted(m for m in sys.modules if m.startswith('homcount.')))\n"
    assert _fresh(code) == "\n"
