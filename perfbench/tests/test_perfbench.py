"""The benchmark's own tests: a tiny smoke run of every workload, the traced
suite, the failure gate and the golden digests.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from workloads import INVALID_KINDS, SIZES, golden_digest, import_program, load_digests, run_ops  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WRONG_TYPE_KINDS = INVALID_KINDS[:6]


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_smoke_run(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0",
                             "--size", "tiny"))
    assert result["correct"]
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(m["value"] > 0 for m in result["metrics"].values())
    details = json.loads((HERE / "out" / f"BENCH_{workload}.json").read_text())["details"]
    if workload == "wire-roundtrip":
        # only the wrong-type documents may fail: they are accepted or raise TypeError today
        assert all(any(kind in f for kind in WRONG_TYPE_KINDS) for f in details["failures"])
    else:
        assert result["failed"] == 0, details["failures"]


def test_traced_suite_reports_every_layer():
    result = result_of(bench("--workload", "exact-deep", "--seed", "3", "--seconds", "1", "--trace", "1",
                             "--size", "tiny"))
    assert result["correct"]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    for name in ("counting.grow_s", "kernel.nodes_per_s", "enumeration.models_per_s", "model.parse_s",
                 "correspondence.expand_s", "verify.busy_s", "cli.verify_s"):
        assert result["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "exact-deep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _tiny_ops(workload: str, hc):
    return workloads.OP_LISTS[workload](random.Random(5), SIZES["tiny"][workload], hc)


def test_wrong_answer_is_counted_not_raised(monkeypatch):
    hc = import_program()
    real = hc.counting.fubini
    monkeypatch.setattr(hc.counting, "fubini", lambda k: real(k) + 1)
    ops = _tiny_ops("exact-deep", hc)
    result = run_ops(ops, hc, tracer=None)
    assert result.attempted == len(ops)
    assert result.wrong >= 1 and result.failed == result.wrong
    assert any("fubini" in f for f in result.failures)


def test_corrupted_wire_format_is_counted(monkeypatch):
    hc = import_program()
    real = hc.model.model_to_dict
    monkeypatch.setattr(hc.model, "model_to_dict", lambda m: {**real(m), "k": m.k + 1})
    result = run_ops(_tiny_ops("wire-roundtrip", hc), hc, tracer=None)
    assert result.wrong > 0
    assert any("JSON bytes" in f or "structure" in f for f in result.failures)


def test_digests_agree_with_the_independent_routes():
    from homcount import counting, series, verify

    digests = load_digests()
    check = lambda seq, k, value: golden_digest(digests, seq, k) == workloads.digest(value)  # noqa: E731
    assert all(check("count_I", k + 1, v) for k, v in enumerate(verify.I_REFERENCE))
    assert all(check("count_L", k, v) for k, v in enumerate(verify.L_REFERENCE))
    assert all(check("count_I", k, counting.closed_form_I(k) + 1) for k in range(1, 26))
    for egf, seq in ((series.egf_H, "count_L"), (series.egf_f, "j_surjective"), (series.egf_fubini, "fubini")):
        s = egf(30)
        assert all(check(seq, k, series.egf_counts(s, k)) for k in range(31))
    from homcount import _countwalk_py, enumeration

    assert all(check("count_I", k, _countwalk_py.count_models(k, True)) for k in range(7))
    for k in range(6):
        s_first, r_first = enumeration.surjective_first_point_split(k, True, cap=6)
        assert check("k1", k, s_first) and check("k2", k, r_first)
