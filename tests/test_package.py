"""The package surface: every module imports from the package, a bare import loads none of them, and
tools/sloc.py counts the package's code lines."""

import subprocess
import sys
from pathlib import Path

import pytest

import homcount

PACKAGE_DIR = Path(homcount.__file__).resolve().parent
SLOC = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        homcount.no_such_name


def test_every_module_file_imports_from_the_package(run_python):
    names = sorted(path.stem for path in PACKAGE_DIR.glob("*.py") if not path.stem.startswith("__"))
    assert "counting" in names
    assert run_python(f"from homcount import {', '.join(names)}\nprint(counting.count_I(3))\n") == "71\n"


def test_main_is_never_an_attribute(run_python):
    # stderr joins stdout, so a CLI run by importing __main__ (usage text, exit 2) would show or fail here
    code = ("import sys\nsys.stderr = sys.stdout\nimport homcount\n"
            "print(hasattr(homcount, '__main__'), hasattr(homcount, 'a.b'))\n")
    assert run_python(code) == "False False\n"


def test_bare_import_loads_no_submodule(run_python):
    code = "import sys\nimport homcount\nprint(*sorted(m for m in sys.modules if m.startswith('homcount.')))\n"
    assert run_python(code) == "\n"


def test_sloc_refuses_a_directory_without_modules(tmp_path):
    # a moved package would otherwise count as "total 0" and pass the code-lines step
    run = subprocess.run([sys.executable, str(SLOC), str(tmp_path)], capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (2, "", f"no .py file in {tmp_path}\n")
    # a call without the directory is a usage error too, not an IndexError
    run = subprocess.run([sys.executable, str(SLOC)], capture_output=True, text=True)
    assert (run.returncode, run.stdout, run.stderr) == (2, "", "usage: python tools/sloc.py <package directory>\n")
    run = subprocess.run([sys.executable, str(SLOC), str(PACKAGE_DIR)], capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1].startswith("total ")
