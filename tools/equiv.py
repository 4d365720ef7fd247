"""Equivalence against a parent commit: the same corpus of public calls, run on two trees.

    python tools/equiv.py PARENT [--expect FILE]

runs the corpus equiv_corpus.py beside this file once on the src/ of the
checkout that holds this file and once on `git archive PARENT src`, unpacked in
a temporary directory. Each side runs in its own interpreter with
PYTHONHASHSEED=0 and PYTHONDONTWRITEBYTECODE=1, its src/ first on PYTHONPATH,
so nothing is written under src/. It prints the number of outcomes and the
time of each side, then the number of differing outcomes and the first of
them. It exits 1 if an outcome differs that the --expect file (one outcome
label a line; blank lines and lines starting with # are skipped) does not
list, 2 on a usage error or a side that fails to run, and 0 otherwise.

A corpus is a Python file that defines outcomes(check). check(label, fn,
*args) calls fn(*args), records the outcome under `label` (unique in the
corpus) and returns (True, value), or (False, None) if the call raised. An
outcome is the value's repr, or the exception's type and text; one longer than
160 characters is recorded as its sha256.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import runpy
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SHOWN = 10  # differing outcomes printed in full
CORPUS = Path(__file__).resolve().with_name("equiv_corpus.py")
REPO = Path(__file__).resolve().parents[1]  # the git checkout whose src/ is the working tree


def _record(label: str, text: str) -> None:
    text = text.replace("\n", "\\n")
    if len(text) > 160:
        text = f"sha256:{hashlib.sha256(text.encode()).hexdigest()} ({len(text)} chars)"
    print(f"{label}\t{text}")


def check(label: str, fn, *args):
    """Call fn(*args) and record its outcome under `label`: (True, value), or (False, None) if it raised."""
    try:
        value = fn(*args)
    except Exception as exc:
        _record(label, f"!{type(exc).__name__}: {exc}")
        return False, None
    _record(label, repr(value))
    return True, value


def _fail(message: str):
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _side(src: Path) -> tuple[dict[str, str], float]:
    """The corpus's outcomes, label -> text, run with `src` first on the path, and the time it took."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])),
           "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    run = subprocess.run([sys.executable, __file__, "--run", str(CORPUS)], env=env, cwd=src.parent,
                         capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if run.returncode:
        _fail(f"the corpus failed on {src}:\n{run.stderr[-2000:]}")
    outcomes = {}
    for line in run.stdout.splitlines():
        label, _, text = line.partition("\t")
        if label in outcomes:
            _fail(f"the corpus records {label!r} twice")
        outcomes[label] = text
    return outcomes, seconds


def main() -> int:
    parser = argparse.ArgumentParser(description="Run a corpus of public calls on the working tree and on a "
                                     "parent commit, and list the outcomes that differ.")
    parser.add_argument("parent", nargs="?", help="the commit to compare against")
    parser.add_argument("--expect", type=Path, help="labels of the outcomes that differ on purpose, one a line")
    parser.add_argument("--run", type=Path, help=argparse.SUPPRESS)  # one side, in its own interpreter
    args = parser.parse_args()
    if args.run:
        runpy.run_path(str(args.run))["outcomes"](check)
        return 0
    if not args.parent:
        parser.error("PARENT is required")
    lines = args.expect.read_text().splitlines() if args.expect else []
    expected = {line.strip() for line in lines if line.strip() and not line.startswith("#")}
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", args.parent, "src"], cwd=REPO, capture_output=True)
        if archive.returncode:
            _fail(f"git archive {args.parent} src failed: {archive.stderr.decode().strip()}")
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        before, before_s = _side(Path(tmp) / "src")
    after, after_s = _side(REPO / "src")
    differ = [label for label in {**before, **after} if before.get(label) != after.get(label)]
    unexpected = [label for label in differ if label not in expected]
    print(f"outcomes: parent {args.parent} {len(before)} in {before_s:.1f} s, "
          f"working tree {len(after)} in {after_s:.1f} s")
    print(f"differing outcomes: {len(differ)} ({len(differ) - len(unexpected)} expected, "
          f"{len(unexpected)} unexpected)")
    for label in differ[:SHOWN]:
        print(f"  {label}{'  [expected]' if label in expected else ''}\n"
              f"    parent:       {before.get(label, '(absent)')}\n    working tree: {after.get(label, '(absent)')}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
