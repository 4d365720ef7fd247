"""The seeded workloads: inputs made from the seed, one pass's op list, answer checks.

A pass is a closed loop with one client: each op runs only after the previous
one returned. Every op's answer is checked right after it returns, outside
its timed span, and a failed check is counted, never raised. An op fails when
it returns a wrong answer (`wrong`), raises anything but the clean
`ValueError` rejection it expects, or accepts a document it should reject
(`error`).

Why these workloads:

* exact-deep: the recurrence tables (`counting`, `combinatorics`), the EGF
  constructions (`series`) and `asymptotics` do all the work; the walk, the model
  stream and the maps are idle.
* brute-walk: the kernel walk and the canonical model stream do all the work;
  the recurrences only give cheap reference values.
* wire-roundtrip: the JSON formats (`model`) and the model<->description maps
  (`correspondence`) in thousands of microsecond-sized ops, accept and reject
  paths side by side.
* cli-session: interpreter and import cold start, and `homcount verify` end to
  end, through `python -m homcount` subprocesses (run by run.py).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from spans import Tracer, bind

GOLDEN = Path(__file__).resolve().parent / "golden"
CAP = 8  # brute-force cap passed to every capped call, never taken from HOMCOUNT_CAP
SAMPLED_K = 4  # brute-walk ops below this k take microseconds, mostly call overhead: not sampled
DIGEST_CHARS = 10
SEQUENCES = ("count_I", "count_L", "j_surjective", "k1", "k2", "fubini")
QUERY_WEIGHTS = (4, 4, 1, 1, 1, 1)
FAMILY = {"count_I": "K", "k1": "K", "k2": "K", "count_L": "J", "j_surjective": "J", "fubini": "F"}

SIZES = {
    "full": {
        "exact-deep": {"k_top": {"K": 1000, "J": 400, "F": 400}, "queries": 400, "closed_form_k": (20, 40), "closed_form_ops": 4,
                       "egf_order": {"egf_H": 80, "egf_f": 40, "egf_fubini": 80},
                       "ratio_k": (100, 170), "bound_ops": 8},
        "brute-walk": {"count_c": 8, "count_u": 7, "surjective_u": 6, "split": 6, "stream_c": 6, "stream_u": 5,
                       "stream_osp": 6, "extra_ops": 20, "extra_k": 6},
        "wire-roundtrip": {"valid_per_kind": 2000, "invalid_per_kind": 150, "k_max": 8},
        "cli-session": {"k1_brute_k": 6, "verify": ("verify",)},
    },
    "tiny": {
        "exact-deep": {"k_top": {"K": 60, "J": 40, "F": 40}, "queries": 30, "closed_form_k": (5, 10), "closed_form_ops": 2,
                       "egf_order": {"egf_H": 12, "egf_f": 10, "egf_fubini": 12},
                       "ratio_k": (12, 20), "bound_ops": 3},
        "brute-walk": {"count_c": 5, "count_u": 4, "surjective_u": 4, "split": 4, "stream_c": 4, "stream_u": 3,
                       "stream_osp": 4, "extra_ops": 4, "extra_k": 4},
        "wire-roundtrip": {"valid_per_kind": 20, "invalid_per_kind": 2, "k_max": 5},
        "cli-session": {"k1_brute_k": 4, "verify": ("verify", "--k-max", "4", "--terms", "8", "--cap", "4")},
    },
}


@dataclass
class Op:
    """One request: `run(api)` is timed, `check(result)` is not.

    `check` returns None when the answer is right, else a message. With
    `reject` set, the only passing outcome is a `ValueError` from `run`.
    `sample` marks the ops whose latency feeds the per-op percentiles.
    """

    name: str
    run: Callable
    check: Callable | None = None
    reject: bool = False
    sample: bool = True
    meta: dict = field(default_factory=dict)


def digest(value: int) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()[:DIGEST_CHARS]


def load_digests() -> dict[str, str]:
    return json.loads((GOLDEN / "digests.json").read_text())["sequences"]


def golden_digest(digests: dict[str, str], seq: str, k: int) -> str:
    return digests[seq][DIGEST_CHARS * k : DIGEST_CHARS * (k + 1)]


# ---------------------------------------------------------------------------
# exact-deep


def _value_check(digests, seq, k):
    want = golden_digest(digests, seq, k)
    return lambda v: None if digest(v) == want else f"{seq}({k}) digest {digest(v)} != {want}"


def exact_deep_ops(rng: random.Random, size: dict, hc) -> list[Op]:
    digests = load_digests()
    top = size["k_top"]
    ops: list[Op] = []
    seen = {"K": -1, "J": -1, "F": -1}

    def value_op(fn: str, k: int, sample: bool) -> Op:
        grow = k > seen[FAMILY[fn]]
        seen[FAMILY[fn]] = max(seen[FAMILY[fn]], k)
        return Op(f"counting.{fn}", lambda api: getattr(api.counting, fn)(k),
                  _value_check(digests, fn, k), sample=sample, meta={"k": k, "grow": grow})

    # the writes: one call per table family at its top index grows the table
    writers = [rng.choice(["count_I", "k1", "k2"]), rng.choice(["count_L", "j_surjective"]), "fubini"]
    rng.shuffle(writers)
    ops += [value_op(fn, top[FAMILY[fn]], sample=False) for fn in writers]
    # the reads: warm lookups anywhere below the top. count_I and count_L sum
    # over their tables on every call, the others index them; weighting the
    # summing ones keeps the median latency off the boundary between the two.
    for fn in rng.choices(SEQUENCES, weights=QUERY_WEIGHTS, k=size["queries"]):
        ops.append(value_op(fn, rng.randint(0, top[FAMILY[fn]]), sample=True))

    lo, hi = size["closed_form_k"]
    for k in rng.sample(range(lo, hi + 1), size["closed_form_ops"]):
        want = golden_digest(digests, "count_I", k)
        ops.append(Op("counting.closed_form_I", lambda api, k=k: api.counting.closed_form_I(k),
                      lambda v, k=k, want=want: None if digest(v + 1) == want
                      else f"closed_form_I({k}) + 1 disagrees with count_I({k})",
                      sample=False, meta={"k": k}))

    reference = {"egf_H": "count_L", "egf_f": "j_surjective", "egf_fubini": "fubini"}
    egfs = list(size["egf_order"].items())
    rng.shuffle(egfs)
    for egf, order in egfs:
        slot: dict = {}

        def build(api, egf=egf, order=order, slot=slot):
            slot["series"] = getattr(api.series, egf)(order)
            return slot["series"].order

        def counts(api, order=order, slot=slot):
            return [api.series.egf_counts(slot["series"], k) for k in range(order + 1)]

        def check_counts(values, seq=reference[egf], order=order):
            bad = [k for k in range(order + 1) if digest(values[k]) != golden_digest(digests, seq, k)]
            return f"{seq} EGF counts disagree with the recurrence at k={bad[:5]}" if bad else None

        ops.append(Op(f"series.{egf}", build, lambda got, order=order: None if got == order
                      else f"series order {got} != {order}", sample=False, meta={"terms": order + 1}))
        ops.append(Op("series.egf_counts", counts, check_counts, sample=False))

    k_max = rng.randint(*size["ratio_k"])
    ops.append(Op("asymptotics.ratio_report", lambda api: api.asymptotics.ratio_report(k_max),
                  lambda rows: _check_ratios(rows, k_max), sample=False))
    bound_ks = sorted(rng.sample(range(1, top["K"] + 1), size["bound_ops"]))
    ops.append(Op("asymptotics.bound_ratio_I",
                  lambda api: [api.asymptotics.bound_ratio_I(k) for k in bound_ks],
                  lambda values: _check_bound(values, bound_ks, hc), sample=False))
    return ops


def _check_ratios(rows, k_max):
    if [r.k for r in rows] != list(range(k_max + 1)):
        return f"ratio_report({k_max}) rows cover {len(rows)} indices"
    for r in rows[12:]:
        if abs(r.l_over_a - 1) > 1e-8 or abs(r.j_over_l - 0.6422007) > 1e-3:
            return f"ratio row k={r.k} off its limits: L/A={r.l_over_a}, J/L={r.j_over_l}"
    return None


def _check_bound(values, ks, hc):
    for k, v in zip(ks, values):
        want = math.exp(math.log(hc.counting.count_I(k)) - math.lgamma(k + 1) - k * math.log(2.123))
        if not math.isclose(v, want, rel_tol=1e-9):
            return f"bound_ratio_I({k}) = {v}, expected {want}"
    if any(b >= a for a, b in zip(values, values[1:])):
        return f"bound_ratio_I does not decrease over k={ks}"
    return None


# ---------------------------------------------------------------------------
# brute-walk


def _stream_check(hc, k, constrained, want, surjective, all_s=False):
    full = frozenset(range(1, k + 1))

    def check(models):
        if len(models) != want:
            return f"stream k={k} gave {len(models)} models, expected {want}"
        keys = [hc.model.canonical_key(m) for m in models]
        if any(b <= a for a, b in zip(keys, keys[1:])):
            return f"stream k={k} not in strictly increasing canonical order"
        for m in models:
            if m.k != k or m.adjacency_constrained != constrained:
                return f"stream k={k} produced a model with k={m.k}"
            if surjective and m.used_colors() != full:
                return f"stream k={k} kept a non-surjective model"
            if all_s and any(isinstance(p, hc.model.RPoint) for p in m.points):
                return f"ordered set partition stream k={k} produced an R-point"
        return None

    return check


def brute_walk_ops(rng: random.Random, size: dict, hc) -> list[Op]:
    c = hc.counting
    models_count = lambda k, con: c.count_I(k) if con else c.count_L(k)  # noqa: E731
    surj_count = lambda k, con: c.k1(k) + c.k2(k) if con else c.j_surjective(k)  # noqa: E731
    osp_nodes = lambda k: sum(hc.combinatorics.binomial(k, i) * c.fubini(i) for i in range(k + 1))  # noqa: E731

    def walk(kind: str, k: int, con: bool | None) -> Op:
        if kind == "count_models":
            run, want, nodes = (lambda api: api.kernel.count_models(k, con)), models_count(k, con), models_count(k, con)
        elif kind == "count_surjective":
            run, want, nodes = (lambda api: api.kernel.count_surjective(k, con)), surj_count(k, con), models_count(k, con)
        else:
            run, want, nodes = (lambda api: api.kernel.count_ordered_set_partitions(k)), c.fubini(k), osp_nodes(k)
        return Op(f"kernel.{kind}", run, lambda v: None if v == want else f"{kind}({k}, {con}) = {v}, expected {want}",
                  sample=k >= SAMPLED_K, meta={"nodes": nodes})

    ops = []
    for con, top, surjective_top in ((True, size["count_c"], size["count_u"]),
                                     (False, size["count_u"], size["surjective_u"])):
        ops += [walk("count_models", k, con) for k in range(top + 1)]
        ops += [walk("count_surjective", k, con) for k in range(surjective_top + 1)]
    ops += [walk("count_ordered_set_partitions", k, None) for k in range(size["count_u"] + 1)]
    for _ in range(size["extra_ops"]):  # the seeded part; unsampled, so it cannot move the percentiles
        kind = rng.choice(["count_models", "count_surjective", "count_ordered_set_partitions"])
        op = walk(kind, rng.randint(0, size["extra_k"]), rng.choice([True, False]))
        op.sample = False
        ops.append(op)

    for k in range(size["split"] + 1):
        want = (c.k1(k), c.k2(k))
        ops.append(Op("enumeration.surjective_first_point_split",
                      lambda api, k=k: api.enumeration.surjective_first_point_split(k, True, cap=CAP),
                      lambda v, k=k, want=want: None if tuple(v) == want else f"split({k}) = {v}, expected {want}",
                      sample=k >= SAMPLED_K, meta={"generated": c.count_I(k), "kept": sum(want)}))
    for con, top in ((True, size["stream_c"]), (False, size["stream_u"])):
        for k in range(top + 1):
            n = models_count(k, con)
            ops.append(Op("enumeration.enumerate_models", lambda api, k=k, con=con: api.enumeration.enumerate_models(k, con),
                          _stream_check(hc, k, con, n, surjective=False), sample=k >= SAMPLED_K,
                          meta={"generated": n}))
            kept = surj_count(k, con)
            ops.append(Op("enumeration.enumerate_surjective",
                          lambda api, k=k, con=con: api.enumeration.enumerate_surjective(k, con),
                          _stream_check(hc, k, con, kept, surjective=True), sample=k >= SAMPLED_K,
                          meta={"generated": n, "kept": kept}))
    for k in range(size["stream_osp"] + 1):
        ops.append(Op("enumeration.enumerate_ordered_set_partitions",
                      lambda api, k=k: api.enumeration.enumerate_ordered_set_partitions(k, cap=CAP),
                      _stream_check(hc, k, False, c.fubini(k), surjective=True, all_s=True),
                      sample=k >= SAMPLED_K, meta={"generated": c.fubini(k)}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# wire-roundtrip: documents are built here as plain dicts, in the key order of
# the published formats, so a valid document must come back byte for byte.


def _random_points(rng, k, constrained):
    colors = list(range(1, k + 1))
    rng.shuffle(colors)
    pool = colors[: rng.randint(0, k)]
    points, i, last_r = [], 0, False
    while i < len(pool):
        if not (constrained and last_r) and rng.random() < 0.4:
            points.append(("R", pool[i]))
            i, last_r = i + 1, True
        else:
            n = rng.randint(1, min(3, len(pool) - i))
            points.append(("S", sorted(pool[i : i + n])))
            i, last_r = i + n, False
    return points


def _model_doc(k, constrained, points):
    return {"k": k, "adjacency_constrained": constrained,
            "points": [{"type": "R", "color": x} if t == "R" else {"type": "S", "colors": x} for t, x in points]}


def _description_doc(points):
    return {"segments": [{"type": "block", "kind": {"finite": x}} if t == "R"
                         else {"type": "shuffle", "kinds": [{"finite": c} for c in x]} for t, x in points]}


def _colored_doc(points):
    return {"segments": [{"type": "block", "color": x} if t == "R" else {"type": "shuffle", "colors": x}
                         for t, x in points]}


def _nonempty_points(rng, k, constrained):
    points = []
    while not points:
        points = _random_points(rng, k, constrained)
    return points


def _invalid_doc(rng, kind, k_max):
    """(format, document, k) for one invalid document of the named kind."""
    k = rng.randint(3, k_max)
    if kind == "model_k_str":
        doc = _model_doc(k, True, _nonempty_points(rng, k, True))
        doc["k"] = str(k)
    elif kind == "model_colors_str":
        doc = _model_doc(k, True, [("S", [1, 2])] + [("R", 3)] * (rng.random() < 0.5))
        doc["points"][0]["colors"] = "12"
    elif kind == "model_flag_str":
        doc = _model_doc(k, True, _nonempty_points(rng, k, True))
        doc["adjacency_constrained"] = "yes"
    elif kind == "model_color_float":
        doc = _model_doc(k, rng.random() < 0.5, [("R", 1)])
        doc["points"][0]["color"] = 1.0
    elif kind == "model_color_bool":
        doc = _model_doc(k, rng.random() < 0.5, [("R", 1)])
        doc["points"][0]["color"] = True
    elif kind == "description_finite_bool":
        return "description", {"segments": [{"type": "block", "kind": {"finite": True}}]}, k
    elif kind == "model_reused_color":
        doc = _model_doc(k, False, [("S", [1, 2]), ("R", rng.choice([1, 2]))])
    elif kind == "model_adjacent_r":
        doc = _model_doc(k, True, [("R", 1), ("R", 2)] + [("S", [3])] * (rng.random() < 0.5))
    elif kind == "model_color_out_of_range":
        doc = _model_doc(k, rng.random() < 0.5, [("S", [1]), ("R", k + rng.randint(1, 3))])
    elif kind == "model_empty_s":
        doc = _model_doc(k, rng.random() < 0.5, [("R", 1), ("S", [])])
    elif kind == "description_adjacent_finite":
        return "description", _description_doc([("R", 1), ("R", 2)]), k
    elif kind == "description_reused_kind":
        return "description", _description_doc([("S", [1, 2]), ("R", 2)]), k
    elif kind == "colored_reused_color":
        return "colored", _colored_doc([("R", 1), ("S", [1, 2])]), k
    else:  # colored_color_out_of_range
        return "colored", _colored_doc([("S", [1]), ("R", k + 1)]), k
    return "model", doc, k


INVALID_KINDS = (
    # wrong types that the strict-format item in the roadmap must reject
    "model_k_str", "model_colors_str", "model_flag_str", "model_color_float", "model_color_bool",
    "description_finite_bool",
    # axiom violations
    "model_reused_color", "model_adjacent_r", "model_color_out_of_range", "model_empty_s",
    "description_adjacent_finite", "description_reused_kind", "colored_reused_color", "colored_color_out_of_range",
)


def _model_chain(api, text):
    m = api.model.model_from_dict(json.loads(text))
    report = api.model.validate_model(m)
    if m.adjacency_constrained:
        mid = json.dumps(api.model.description_to_dict(api.correspondence.expand_model(m)))
        d = api.model.description_from_dict(json.loads(mid))
        api.model.validate_description(d)
        back = api.correspondence.contract_description(d, m.k)
    else:
        mid = json.dumps(api.model.colored_description_to_dict(api.correspondence.expand_colored(m)))
        d = api.model.colored_description_from_dict(json.loads(mid))
        api.model.validate_colored_description(d)
        back = api.correspondence.contract_colored(d, m.k)
    out = json.dumps(api.model.model_to_dict(back))
    return report.ok, back == m, out == text


def _description_chain(api, text, k):
    d = api.model.description_from_dict(json.loads(text))
    report = api.model.validate_description(d)
    mid = json.dumps(api.model.model_to_dict(api.correspondence.contract_description(d, k)))
    m = api.model.model_from_dict(json.loads(mid))
    api.model.validate_model(m)
    back = api.correspondence.expand_model(m)
    out = json.dumps(api.model.description_to_dict(back))
    return report.ok, back == d, out == text


def _colored_chain(api, text, k):
    d = api.model.colored_description_from_dict(json.loads(text))
    report = api.model.validate_colored_description(d)
    mid = json.dumps(api.model.model_to_dict(api.correspondence.contract_colored(d, k)))
    m = api.model.model_from_dict(json.loads(mid))
    api.model.validate_model(m)
    back = api.correspondence.expand_colored(m)
    out = json.dumps(api.model.colored_description_to_dict(back))
    return report.ok, back == d, out == text


CHAINS = {"model": _model_chain, "description": _description_chain, "colored": _colored_chain}


def _roundtrip_check(flags):
    valid, equal, same_bytes = flags
    if not valid:
        return "valid document reported invalid"
    if not equal:
        return "round trip changed the structure"
    return None if same_bytes else "round trip changed the JSON bytes"


def _wire_op(fmt, doc, k, kind):
    text = json.dumps(doc)
    chain = CHAINS[fmt]
    run = (lambda api: chain(api, text)) if fmt == "model" else (lambda api: chain(api, text, k))
    invalid = kind in INVALID_KINDS
    return Op(f"wire.{fmt}", run, None if invalid else _roundtrip_check, reject=invalid, meta={"kind": kind})


def wire_roundtrip_ops(rng: random.Random, size: dict, hc) -> list[Op]:
    ops = []
    k_max = size["k_max"]
    for _ in range(size["valid_per_kind"]):
        k = rng.randint(1, k_max)
        ops.append(_wire_op("model", _model_doc(k, True, _random_points(rng, k, True)), k, "model_constrained"))
        k = rng.randint(1, k_max)
        ops.append(_wire_op("model", _model_doc(k, False, _random_points(rng, k, False)), k, "model_unconstrained"))
        k = rng.randint(1, k_max)
        ops.append(_wire_op("description", _description_doc(_random_points(rng, k, True)), k, "description"))
        k = rng.randint(1, k_max)
        ops.append(_wire_op("colored", _colored_doc(_random_points(rng, k, False)), k, "colored"))
    for kind in INVALID_KINDS:
        for _ in range(size["invalid_per_kind"]):
            fmt, doc, k = _invalid_doc(rng, kind, k_max)
            ops.append(_wire_op(fmt, doc, k, kind))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-session: the command pool and its golden outputs live in golden/cli.json;
# the seed picks a script from it.


def cli_script(rng: random.Random, size: dict) -> list[dict]:
    pool = json.loads((GOLDEN / "cli.json").read_text())["commands"]
    by_group: dict[str, list[dict]] = {}
    for entry in pool:
        by_group.setdefault(entry["group"], []).append(entry)

    def pick(group, n=1):
        return rng.sample(by_group[group], n)

    script = pick("help") + pick("count-recurrence", 2) + pick("count-closed-form") + pick("count-egf")
    script += pick("count-brute-force") + pick("export", 2) + pick("series") + pick("asymptotic-constants")
    script += pick("asymptotic-ratios") + pick("expand-constrained") + pick("expand-unconstrained")
    script += pick("contract") + pick("contract-unconstrained") + pick("usage-error", 3)
    k1 = [e for e in by_group["count-k1-brute-force"] if e["argv"][4] == str(size["k1_brute_k"])]
    script += k1 + [e for e in by_group["verify"] if tuple(e["argv"]) == size["verify"]]
    rng.shuffle(script)
    return script


# ---------------------------------------------------------------------------
# one pass


def import_program():
    """The homcount modules the workloads call, imported on first use."""
    from homcount import (asymptotics, combinatorics, correspondence, counting, enumeration, kernel, model,
                          series, verify)

    return SimpleNamespace(asymptotics=asymptotics, combinatorics=combinatorics, correspondence=correspondence,
                           counting=counting, enumeration=enumeration, kernel=kernel, model=model,
                           series=series, verify=verify)


def _consume(fn):
    def stream(*args, **kwargs):
        return list(fn(*args, **kwargs))

    return stream


def make_api(hc, tracer: Tracer | None):
    """The program's public functions as the ops call them, traced or not."""
    streams = SimpleNamespace(
        enumerate_models=_consume(hc.enumeration.enumerate_models),
        enumerate_surjective=_consume(hc.enumeration.enumerate_surjective),
        enumerate_ordered_set_partitions=_consume(hc.enumeration.enumerate_ordered_set_partitions),
        surjective_first_point_split=hc.enumeration.surjective_first_point_split,
    )
    return SimpleNamespace(
        counting=bind(hc.counting, ("count_I", "count_L", "j_surjective", "k1", "k2", "fubini", "closed_form_I"),
                      "counting", tracer),
        series=bind(hc.series, ("egf_H", "egf_f", "egf_fubini", "egf_counts"), "series", tracer),
        asymptotics=bind(hc.asymptotics, ("ratio_report", "bound_ratio_I"), "asymptotics", tracer),
        kernel=bind(hc.kernel, ("count_models", "count_surjective", "count_ordered_set_partitions"), "kernel",
                    tracer),
        enumeration=bind(streams, tuple(vars(streams)), "enumeration", tracer),
        model=bind(hc.model, ("model_from_dict", "description_from_dict", "colored_description_from_dict",
                              "model_to_dict", "description_to_dict", "colored_description_to_dict",
                              "validate_model", "validate_description", "validate_colored_description"),
                   "model", tracer),
        correspondence=bind(hc.correspondence, ("expand_model", "expand_colored", "contract_description",
                                                "contract_colored"), "correspondence", tracer),
    )


OP_LISTS = {"exact-deep": exact_deep_ops, "brute-walk": brute_walk_ops, "wire-roundtrip": wire_roundtrip_ops}


@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)  # seconds, sampled ops only
    wall_s: float = 0.0  # summed op time; the checks between ops are not timed
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: list[str] = field(default_factory=list)
    rss_growth_kb: int = 0


def run_ops(ops: list[Op], hc, tracer: Tracer | None) -> PassResult:
    api = make_api(hc, tracer)
    out = PassResult()
    for i, op in enumerate(ops):
        measure_rss = tracer is not None and op.meta.get("grow")
        if tracer is not None:
            tracer.op = i
            token = tracer.begin("harness.op")
        if measure_rss:
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        error = None
        start = time.perf_counter()
        try:
            value = op.run(api)
        except Exception as exc:  # an op that raises is counted, and the pass goes on
            value, error = None, exc
        elapsed = time.perf_counter() - start
        if measure_rss:
            out.rss_growth_kb += resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
        if tracer is not None:
            tracer.end(token)
        out.wall_s += elapsed
        out.attempted += 1
        if op.sample:
            out.latencies.append(elapsed)
        problem, wrong = judge(op, value, error)
        if problem:
            out.failed += 1
            out.wrong += wrong
            if len(out.failures) < 20:
                out.failures.append(f"op {i} {op.name} {op.meta.get('kind', op.meta.get('k', ''))}: {problem}")
    return out


def judge(op: Op, value, error) -> tuple[str | None, bool]:
    """(problem, is a wrong answer) for one op's outcome."""
    if op.reject:
        if isinstance(error, ValueError):
            return None, False
        if error is None:
            return "invalid document accepted", False
        return f"raised {type(error).__name__} instead of ValueError: {error}", False
    if error is not None:
        return f"raised {type(error).__name__}: {error}", False
    try:
        problem = op.check(value) if op.check else None
    except Exception as exc:  # a result the check cannot even read is a wrong answer
        problem = f"unreadable result: {type(exc).__name__}: {exc}"
    return problem, problem is not None


# ---------------------------------------------------------------------------
# the cli-session command pool; record_golden.py stores each entry's exit code
# and stdout in golden/cli.json


def cli_pool() -> list[dict]:
    rng = random.Random("cli-pool")
    pool = []

    def add(group, *argv, stdin=""):
        pool.append({"group": group, "argv": list(argv), "stdin": stdin})

    for argv in (["--help"], ["count", "--help"], ["verify", "--help"], ["series", "--help"]):
        add("help", *argv)
    for k in range(1, 7):
        for seq in ("I", "L", "J_surjective", "K1", "K2", "Fubini"):
            add("count-recurrence", "count", "--sequence", seq, "--k", str(k), "--method", "recurrence")
        for seq in ("I", "I_closed_nonempty"):
            add("count-closed-form", "count", "--sequence", seq, "--k", str(k), "--method", "closed-form")
        for seq in ("L", "J_surjective", "Fubini"):
            add("count-egf", "count", "--sequence", seq, "--k", str(k), "--method", "egf")
    for k in range(1, 6):
        for seq in ("I", "L", "J_surjective", "K2", "Fubini", "I_closed_nonempty"):
            add("count-brute-force", "count", "--sequence", seq, "--k", str(k), "--method", "brute-force",
                "--cap", "7")
    for k in (4, 6):
        add("count-k1-brute-force", "count", "--sequence", "K1", "--k", str(k), "--method", "brute-force",
            "--cap", "7")
    for seq in ("I", "L", "Fubini"):
        for fmt in ("b-file", "csv", "json"):
            for k_max in (10, 20):
                add("export", "export", "--sequence", seq, "--k-max", str(k_max), "--format", fmt)
    for egf in ("H", "f", "fubini"):
        for terms in (8, 12, 16):
            add("series", "series", "--egf", egf, "--terms", str(terms))
    add("asymptotic-constants", "asymptotic", "constants")
    for k_max in (8, 12, 16, 20):
        add("asymptotic-ratios", "asymptotic", "ratios", "--k-max", str(k_max))
    for _ in range(4):
        k = rng.randint(2, 6)
        add("expand-constrained", "expand", stdin=json.dumps(_model_doc(k, True, _nonempty_points(rng, k, True))))
        add("expand-unconstrained", "expand",
            stdin=json.dumps(_model_doc(k, False, _nonempty_points(rng, k, False))))
        add("contract", "contract", "--k", str(k), stdin=json.dumps(_description_doc(_nonempty_points(rng, k, True))))
        add("contract-unconstrained", "contract", "--k", str(k), "--unconstrained",
            stdin=json.dumps(_colored_doc(_nonempty_points(rng, k, False))))
    add("usage-error", "count", "--sequence", "X", "--k", "3")
    add("usage-error", "count", "--sequence", "I", "--k", "0")
    add("usage-error", "count", "--sequence", "I", "--k", "3", "--method", "egf")
    add("usage-error", "count", "--sequence", "L", "--k", "9", "--method", "brute-force", "--cap", "7")
    add("usage-error", "enumerate", "--k", "9", "--cap", "7")
    add("usage-error", "series", "--terms", "-1")
    add("usage-error", "export", "--sequence", "I", "--k-max", "0", "--format", "csv")
    add("usage-error", "asymptotic", "ratios", "--k-max", "500")
    add("usage-error", "expand", stdin=json.dumps(_model_doc(3, False, [("S", [1, 2]), ("R", 2)])))
    add("usage-error", "contract", "--k", "3", stdin=json.dumps(_description_doc([("R", 1), ("R", 2)])))
    add("verify", "verify")
    add("verify", "verify", "--k-max", "4", "--terms", "8", "--cap", "4")
    return pool
