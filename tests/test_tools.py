"""tools/equiv.py on a toy package in a temporary git checkout that holds a copy of the script and a toy
corpus beside it: identical trees give no differing outcome, a one-line change gives exactly one, and an
--expect file that lists it makes the run pass."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

EQUIV = Path(__file__).resolve().parents[1] / "tools" / "equiv.py"

TOY = 'def double(x):\n    return 2 * x\n\n\ndef name():\n    return "toy"\n'

CORPUS = '''import toy


def outcomes(check):
    for x in [0, 1, 2, "a", None]:
        check(f"double({x!r})", toy.double, x)
    check("name()", toy.name)
'''


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-c", "user.name=toy", "-c", "user.email=toy@example.invalid", *args], cwd=repo,
                   check=True, capture_output=True)


@pytest.fixture
def toy(tmp_path):
    """A git checkout with one commit: src/toy, and tools/ with a copy of equiv.py and a corpus of six outcomes."""
    (tmp_path / "src" / "toy").mkdir(parents=True)
    (tmp_path / "src" / "toy" / "__init__.py").write_text(TOY)
    (tmp_path / "tools").mkdir()
    shutil.copy(EQUIV, tmp_path / "tools" / "equiv.py")
    (tmp_path / "tools" / "equiv_corpus.py").write_text(CORPUS)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "toy")
    return tmp_path


def _equiv(repo: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(repo / "tools" / "equiv.py"), "HEAD", *args], capture_output=True,
                          text=True, timeout=60)


def test_identical_trees_give_no_differing_outcome(toy):
    run = _equiv(toy)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("outcomes: parent HEAD 6 in ")
    assert ", working tree 6 in " in run.stdout
    assert run.stdout.endswith("differing outcomes: 0 (0 expected, 0 unexpected)\n")
    assert not list(toy.rglob("__pycache__"))  # neither side wrote bytecode, under src/ or beside the corpus


def test_a_one_line_change_is_one_differing_outcome(toy):
    (toy / "src" / "toy" / "__init__.py").write_text(TOY.replace('"toy"', '"toy2"'))
    run = _equiv(toy)
    assert run.returncode == 1, run.stderr
    assert run.stdout.endswith("differing outcomes: 1 (0 expected, 1 unexpected)\n"
                               "  name()\n    parent:       'toy'\n    working tree: 'toy2'\n")
    (toy / "expect.txt").write_text("# renamed on purpose\n\nname()\n")
    run = _equiv(toy, "--expect", str(toy / "expect.txt"))
    assert run.returncode == 0, run.stderr
    assert "differing outcomes: 1 (1 expected, 0 unexpected)\n  name()  [expected]\n" in run.stdout


def test_an_exception_is_an_outcome(toy):
    # double(None) raises at the parent; a change that returns a value instead is a differing outcome
    (toy / "src" / "toy" / "__init__.py").write_text(TOY.replace("2 * x", "2 * x if x is not None else 0"))
    run = _equiv(toy)
    assert run.returncode == 1, run.stderr
    assert ("  double(None)\n    parent:       !TypeError: unsupported operand type(s) for *: 'int' and 'NoneType'\n"
            "    working tree: 0\n") in run.stdout
