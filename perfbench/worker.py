"""One pass of one workload in a fresh interpreter; prints one JSON object.

run.py starts this as its only child at a time. The pass imports homcount,
builds its inputs from the seed, runs the op list, checks every answer and
reports what it measured. With --trace it also records spans, writes them to
perfbench/out/ and reports the per-layer sums.

    python perfbench/worker.py --workload exact-deep --seed 1 --pass-index 0
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

T_STARTED = time.monotonic()

from spans import Tracer, self_times  # noqa: E402
from workloads import OP_LISTS, SIZES, cli_script, import_program, run_ops  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"


def layer_sums(spans, ops, rss_growth_kb: int) -> dict:
    """Additive per-layer sums for one traced pass; run.py derives the rates."""
    own, problems = self_times(spans)
    sums: dict[str, float] = {"counting.rss_growth_mb": rss_growth_kb / 1024}

    def add(key, value):
        sums[key] = sums.get(key, 0) + value

    for span, seconds in zip(spans, own):
        _, _, op_index, name, _, _, raised = span
        layer, fn = name.split(".", 1)
        meta = ops[op_index].meta if op_index >= 0 else {}
        add(f"{layer}.calls", 1)
        add(f"{layer}.busy_s", seconds)
        if layer == "counting":
            kind = "closed_form" if fn == "closed_form_I" else "grow" if meta.get("grow") else "lookup"
            add(f"counting.{kind}_s", seconds)
        elif layer == "series":
            add(f"series.{fn}_s", seconds)
            if fn != "egf_counts":
                add("series.build_s", seconds)
                add("series.terms", meta["terms"])
        elif layer == "kernel":
            add("kernel.nodes", meta["nodes"])
        elif layer == "enumeration":
            add("enumeration.split_s" if fn == "surjective_first_point_split" else "enumeration.stream_s", seconds)
            if fn != "surjective_first_point_split":
                add("enumeration.models", meta["generated"])
            if "kept" in meta:
                add("enumeration.surjective_kept", meta["kept"])
                add("enumeration.surjective_generated", meta["generated"])
        elif layer == "model":
            kind = "parse" if fn.endswith("from_dict") else "serialize" if fn.endswith("to_dict") else "validate"
            add(f"model.{kind}_s", seconds)
        elif layer == "correspondence":
            add(f"correspondence.{fn.split('_')[0]}_s", seconds)
            add("correspondence.rejected", int(raised))
    sums["trace.wall_s"] = sum(end - start for (_, parent, _, _, start, end, _) in spans if parent < 0)
    sums["trace.self_sum_s"] = sum(own)
    sums["trace.nesting_problems"] = len(problems)
    return sums


def backend_rates(hc) -> dict:
    """Walk nodes/s of each kernel backend that can be imported, on one k=7 walk."""
    from homcount import _countwalk_py

    backends = {"python": _countwalk_py}
    try:
        from homcount import _countwalk  # type: ignore[attr-defined]
    except ImportError:
        pass
    else:
        backends["compiled"] = _countwalk
    nodes = hc.counting.count_I(7)
    rates = {}
    for label, impl in backends.items():
        start = time.perf_counter()
        impl.count_models(7, True)
        rates[label] = nodes / (time.perf_counter() - start)
    if "compiled" not in rates:
        rates["compiled"] = "compiled backend not built"
    return rates


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*OP_LISTS, "cli-session", "verify-inprocess", "warmup"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    hc = import_program()
    rng = random.Random(f"{args.workload}:{args.seed}:{args.pass_index}")
    report = {
        "t_started": T_STARTED,
        "python": sys.version.split()[0],
        "backend": hc.kernel.BACKEND,
    }
    if args.workload == "warmup":
        pass
    elif args.workload == "cli-session":
        report["script"] = cli_script(rng, SIZES[args.size]["cli-session"])
        report["t_ready"] = time.monotonic()
    elif args.workload == "verify-inprocess":
        start = time.perf_counter()
        results = hc.verify.run_checks()
        busy = time.perf_counter() - start
        failed = [r.name for r in results if not r.ok]
        report.update(attempted=1, failed=int(bool(failed)), wrong=int(bool(failed)), failures=failed,
                      layers={"verify.busy_s": busy, "verify.checks": len(results),
                              "verify.checks_failed": len(failed)})
    else:
        ops = OP_LISTS[args.workload](rng, SIZES[args.size][args.workload], hc)
        tracer = Tracer() if args.trace else None
        report["t_ready"] = time.monotonic()
        result = run_ops(ops, hc, tracer)
        report.update(vars(result))
        if tracer is not None:
            report["layers"] = layer_sums(tracer.spans, ops, result.rss_growth_kb)
            if args.workload == "brute-walk":
                report["backends"] = backend_rates(hc)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace_{args.workload}.json.gz")
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
