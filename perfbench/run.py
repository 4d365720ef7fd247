#!/usr/bin/env python3
"""The homcount benchmark: one seeded workload per run, every answer checked.

    python3 perfbench/run.py --workload exact-deep --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout: the program is imported from ./src, and
nothing is built (the optional compiled kernel is used only if it was built
beforehand). Each pass of a workload runs in a fresh interpreter, one child
at a time, and passes repeat until --seconds have gone by (at least
MIN_PASSES). The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the details
(provenance, tail percentile and sample count, failures). A full record goes
to perfbench/out/BENCH_<workload>.json.

--trace 0 reports the end-to-end metrics of the chosen workload, measured
untraced:

  setup_s      fresh interpreter to the first timed op: interpreter start,
               importing homcount, building the inputs from the seed;
               the median over the run's passes
  wall_s       the whole op list, summed over its ops (the answer checks
               between ops are not timed; cli-session: summed command
               walls); the best of the run's passes, because load from other
               tenants of a shared machine only ever slows a pass down, by
               up to 60% for whole stretches of a run
  peak_rss_mb  peak RSS of the process doing the work (cli-session: the
               largest `python -m homcount` child); the median over passes

The details line adds the per-op latencies: op_p50_ms, the median of the
sampled ops pooled over the passes (the query phase of exact-deep, walks
and streams at k >= 4 in brute-walk, every document of wire-roundtrip,
the cold-start-sized commands of cli-session, i.e. its CLI cold start), and
op_tail_ms, the highest of TAIL_LADDER's percentiles that leaves at least
10 samples beyond it, named there with its sample count. Neither repeats
within a tenth from run to run on a shared 2-core machine (spreads of
25-45% for op_p50_ms of exact-deep, over 40% for p99.9 of wire-roundtrip),
so both are per-layer metrics of the traced suite instead of end-to-end
ones.

--trace 1 runs the whole suite once untraced and once traced, one pass per
workload plus one in-process `verify.run_checks()`, and reports the
per-layer metrics (self times, counts, rates), each workload's op_p50_ms
and op_tail_ms and each workload's tracing overhead. --workload is still required; it only names the record file.

`correct` is false when an answer was wrong. `failed` also counts ops that
raised anything but their expected clean rejection, accepted an invalid
document or exited with the wrong code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from spans import Tracer, self_times  # noqa: E402
from workloads import SIZES  # noqa: E402

WORKLOADS = ("exact-deep", "brute-walk", "wire-roundtrip", "cli-session")
MIN_PASSES = 3
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
RUN_LIMIT_S = 150  # stop starting passes after this, so a run ends well within 180 s
HEAVY_CLI_GROUPS = ("verify", "count-k1-brute-force")  # not cold-start sized
CLI_METRIC = {
    "help": "help", "count-recurrence": "count", "count-closed-form": "count", "count-egf": "count",
    "count-brute-force": "count", "count-k1-brute-force": "count_k1_brute_force", "export": "export",
    "series": "series", "asymptotic-constants": "asymptotic", "asymptotic-ratios": "asymptotic",
    "expand-constrained": "expand", "expand-unconstrained": "expand", "contract": "contract",
    "contract-unconstrained": "contract", "usage-error": "usage_error", "verify": "verify",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("HOMCOUNT_CAP", "HOMCOUNT_PURE")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], stdin: bytes = b"", timeout: float = 170.0) -> dict:
    """Run one child to completion; its exit code, output, wall time and peak RSS."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=child_env())
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        reader.join()
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {"exit": proc.returncode, "stdout": out, "stderr": b"".join(err), "wall_s": wall,
            "started": start, "rss_kb": usage.ru_maxrss}


def run_worker(workload: str, seed: int, pass_index: int, size: str, trace: bool = False,
               timeout: float = 170.0) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--pass-index", str(pass_index), "--size", size] + (["--trace"] if trace else [])
    child = spawn(argv, timeout=timeout)
    if child["exit"] != 0:
        raise HarnessError(f"{workload} pass {pass_index} exited {child['exit']}: "
                           f"{child['stderr'].decode(errors='replace')[-2000:]}")
    report = json.loads(child["stdout"])
    if "t_ready" in report:
        report["setup_s"] = report["t_ready"] - child["started"]
    return report


def cli_pass(seed: int, pass_index: int, size: str, tracer: Tracer | None = None, timeout: float = 170.0) -> dict:
    """One cli-session pass: a child builds the seeded script, then each command runs alone."""
    setup = run_worker("cli-session", seed, pass_index, size, timeout=timeout)
    result = {"setup_s": setup["setup_s"], "python": setup["python"], "backend": setup["backend"],
              "latencies": [], "wall_s": 0.0, "attempted": 0, "failed": 0, "wrong": 0, "failures": [],
              "rss_kb": 0, "exit_mismatch": 0, "commands": {}}
    deadline = time.monotonic() + timeout
    for i, entry in enumerate(setup["script"]):
        key = CLI_METRIC[entry["group"]]
        if tracer is not None:
            tracer.op = i
            op_token = tracer.begin("harness.op")
            token = tracer.begin(f"cli.{key}")
        child = spawn([sys.executable, "-m", "homcount", *entry["argv"]], entry["stdin"].encode(),
                      timeout=max(1.0, deadline - time.monotonic()))
        if tracer is not None:
            tracer.end(token)
            tracer.end(op_token)
        result["wall_s"] += child["wall_s"]
        result["attempted"] += 1
        result["rss_kb"] = max(result["rss_kb"], child["rss_kb"])
        result["commands"].setdefault(key, []).append(child["wall_s"])
        if entry["group"] not in HEAVY_CLI_GROUPS:
            result["latencies"].append(child["wall_s"])
        problem = None
        if child["exit"] != entry["exit"]:
            problem = f"exit {child['exit']}, expected {entry['exit']}"
            result["exit_mismatch"] += 1
        elif child["stdout"].decode(errors="replace") != entry["stdout"]:
            problem = "stdout differs from the golden bytes"
            result["wrong"] += 1
        if problem:
            result["failed"] += 1
            if len(result["failures"]) < 20:
                result["failures"].append(f"homcount {' '.join(entry['argv'])}: {problem}")
    return result


def run_passes(workload: str, seed: int, seconds: int, size: str) -> list[dict]:
    started = time.monotonic()
    deadline = started + seconds
    passes: list[dict] = []
    while len(passes) < MIN_PASSES or time.monotonic() < deadline:
        remaining = started + 175 - time.monotonic()
        if passes and time.monotonic() - started > RUN_LIMIT_S:
            break
        if workload == "cli-session":
            passes.append(cli_pass(seed, len(passes), size, timeout=remaining))
        else:
            passes.append(run_worker(workload, seed, len(passes), size, timeout=remaining))
    return passes


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return values[min(len(values) - 1, max(0, math.ceil(pct / 100 * len(values)) - 1))]


def tail_latency(latencies: list[float], guaranteed: int) -> tuple[float, float]:
    """(percentile, value in ms): the highest ladder step with 10 samples beyond it
    among `guaranteed` samples, so every run of a workload uses the same step."""
    tail = next((p for p in TAIL_LADDER if guaranteed * (100 - p) / 100 >= 10), TAIL_LADDER[-1])
    return tail, percentile(sorted(latencies), tail) * 1000


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    latencies = sorted(x for p in passes for x in p["latencies"])
    tail, tail_ms = tail_latency(latencies, MIN_PASSES * min(len(p["latencies"]) for p in passes))
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (min(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["rss_kb"] for p in passes) / 1024, "MB"),
    }
    details = {"op_p50_ms": statistics.median(latencies) * 1000, "op_tail_ms": tail_ms, "op_tail_percentile": tail, "latency_samples": len(latencies),
               "samples_beyond_tail": len(latencies) - math.ceil(tail / 100 * len(latencies)),
               "pass_wall_s": [p["wall_s"] for p in passes], "pass_setup_s": [p["setup_s"] for p in passes],
               "pass_p50_ms": [statistics.median(p["latencies"]) * 1000 for p in passes]}
    return metrics, details


def traced_suite(seed: int, size: str) -> tuple[dict, list[dict], dict]:
    """Every workload once untraced and once traced; the per-layer metrics."""
    sums: dict[str, float] = {}
    runs: list[dict] = []
    overhead: dict[str, float] = {}
    latencies: dict[str, list[float]] = {}
    backends: dict = {}

    def add_layers(layers: dict):
        for key, value in layers.items():
            sums[key] = sums.get(key, 0) + value

    for workload in WORKLOADS[:3]:
        plain = run_worker(workload, seed, 0, size)
        traced = run_worker(workload, seed, 0, size, trace=True)
        runs += [plain, traced]
        latencies[workload] = plain["latencies"]
        layers = traced.pop("layers")
        check_accounting(workload, layers)
        overhead[workload] = layers["trace.wall_s"] - plain["wall_s"]
        add_layers({k: v for k, v in layers.items() if not k.startswith("trace.")})
        backends = traced.get("backends", backends)

    plain = cli_pass(seed, 0, size)
    latencies["cli-session"] = plain["latencies"]
    tracer = Tracer()
    traced = cli_pass(seed, 0, size, tracer=tracer)
    runs += [plain, traced]
    own, problems = self_times(tracer.spans)
    cli_layers = {"trace.wall_s": sum(e - s for (_, parent, _, _, s, e, _) in tracer.spans if parent < 0),
                  "trace.self_sum_s": sum(own), "trace.nesting_problems": len(problems),
                  "harness.busy_s": sum(t for span, t in zip(tracer.spans, own) if span[3] == "harness.op")}
    check_accounting("cli-session", cli_layers)
    overhead["cli-session"] = cli_layers["trace.wall_s"] - plain["wall_s"]
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / "trace_cli-session.json.gz")
    add_layers({"harness.busy_s": cli_layers["harness.busy_s"]})

    verify = run_worker("verify-inprocess", seed, 0, size)
    runs.append(verify)
    add_layers(verify["layers"])

    get = sums.get
    metrics = {name: get(name, 0) for name in (
        "counting.grow_s", "counting.lookup_s", "counting.closed_form_s", "counting.calls",
        "counting.rss_growth_mb", "series.egf_H_s", "series.egf_f_s", "series.egf_fubini_s",
        "series.egf_counts_s", "asymptotics.busy_s", "kernel.calls", "kernel.busy_s", "kernel.nodes",
        "enumeration.stream_s", "enumeration.models", "enumeration.split_s", "model.parse_s",
        "model.serialize_s", "model.validate_s", "correspondence.expand_s", "correspondence.contract_s",
        "correspondence.calls", "correspondence.rejected", "verify.busy_s", "verify.checks",
        "verify.checks_failed", "harness.busy_s")}
    metrics["series.terms_per_s"] = get("series.terms", 0) / get("series.build_s", math.inf)
    metrics["kernel.nodes_per_s"] = get("kernel.nodes", 0) / get("kernel.busy_s", math.inf)
    metrics["enumeration.models_per_s"] = get("enumeration.models", 0) / get("enumeration.stream_s", math.inf)
    metrics["enumeration.surjective_yield"] = (get("enumeration.surjective_kept", 0)
                                               / get("enumeration.surjective_generated", math.inf))
    for key in sorted(set(CLI_METRIC.values())):
        metrics[f"cli.{key}_s"] = statistics.median(traced["commands"][key])
    metrics["cli.exit_mismatch"] = plain["exit_mismatch"] + traced["exit_mismatch"]
    for workload, seconds in overhead.items():
        metrics[f"trace.overhead_s.{workload}"] = seconds
    tails = {w: tail_latency(values, len(values)) for w, values in latencies.items()}
    for workload, values in latencies.items():
        metrics[f"op_p50_ms.{workload}"] = statistics.median(values) * 1000
        metrics[f"op_tail_ms.{workload}"] = tails[workload][1]
    details = {"overhead_s": overhead, "op_tail_percentile": {w: t for w, (t, _) in tails.items()},
               "kernel_backends": backends}
    return metrics, runs, details


def check_accounting(workload: str, layers: dict) -> None:
    """Layer self times plus the harness's own time must add up to the traced wall."""
    wall, accounted = layers["trace.wall_s"], layers["trace.self_sum_s"]
    if layers["trace.nesting_problems"] or abs(wall - accounted) > 1e-6 * wall + 1e-9:
        raise HarnessError(f"{workload}: spans account for {accounted} s of a traced wall of {wall} s "
                           f"({layers['trace.nesting_problems']} nesting problems)")


def unit_of(name: str) -> str:
    if name.startswith(("op_p50_ms.", "op_tail_ms.")):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or ".overhead_s." in name:
        return "s"
    if name.endswith("yield"):
        return "ratio"
    return "count"


def provenance(seed: int, size: str, workload: str, passes: list[dict]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "homcount").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix in (".py", ".pyx", ".c"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                         env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    return {
        "git_rev": git.stdout.strip() if git.returncode == 0 else None,
        "source_sha256": digest.hexdigest(),
        "python": passes[0]["python"],
        "kernel_backend": passes[0]["backend"],
        "nproc": os.cpu_count(),
        "seed": seed,
        "workload": workload,
        "sizes": SIZES[size] if workload == "suite" else SIZES[size][workload],
        "size": size,
        "passes": len(passes),
        "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024,
        "env_unset": ["HOMCOUNT_CAP", "HOMCOUNT_PURE"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the benchmark's own smoke test")
    args = parser.parse_args()
    # a terminated run still stops its child: SystemExit unwinds through spawn()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "homcount" / "__init__.py").is_file():
        print(f"no homcount sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        run_worker("warmup", args.seed, 0, args.size)  # compiles bytecode and warms the file cache
        if args.trace:
            values, passes, details = traced_suite(args.seed, args.size)
            metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
            source = provenance(args.seed, args.size, "suite", passes)
        else:
            passes = run_passes(args.workload, args.seed, args.seconds, args.size)
            values, details = end_to_end(passes)
            metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
            source = provenance(args.seed, args.size, args.workload, passes)
            if args.workload == "cli-session":
                details["cli_cold_start_ms"] = details["op_p50_ms"]
                details["verify_s"] = statistics.median(t for p in passes for t in p["commands"]["verify"])
    except HarnessError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    details.update(provenance=source, ops_failed_ratio=failed / attempted,
                   wrong=sum(p["wrong"] for p in passes),
                   failures=[f for p in passes for f in p["failures"]][:20])
    result = {"correct": details["wrong"] == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    name = f"BENCH_{args.workload}{'_trace' if args.trace else ''}.json"
    (OUT / name).write_text(json.dumps({"result": result, "details": details}, indent=2) + "\n")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
