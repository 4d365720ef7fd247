"""The corpus of tools/equiv.py: public outcomes of homcount, one label each.

    python tools/equiv.py PARENT

runs outcomes(check) once on each tree and compares the outcomes by label. The
corpus reaches every layer through its public functions:

* routes: every ROUTES method over 5 index ranges, and at 11 odd indices and
  11 odd caps;
* counting: each counting function at small and odd inputs, and
  closed_form_I_terms over odd ranges;
* kernel: root_split over 64 flag triples at 6 values of k, and the cap rule;
* streams: every stream for k <= 5 in both theories, as the sha256 of its JSON
  lines, and the streams' odd arguments;
* series and asymptotics: the three builders at 7 orders and at odd orders,
  the primitives, egf_counts, approx_A, the constants, the ratio table and
  Lambert W;
* wire: every model at k <= 3 in both theories and its description, each
  whole and with 8 corruptions of each point's label field, and for the last
  model of each k the malformed documents, through the reader, the validator,
  the expansion and the writer (models) or the contraction at 3 values of k
  (descriptions);
* library: the validators, classify_cnm and is_finite_homogeneous on
  hand-built inputs, and verify.run_checks at a small size.
"""

import hashlib
import itertools
import json
import math

from homcount import asymptotics, correspondence, counting, enumeration, kernel, series, verify
from homcount import model as M
from homcount.routes import ROUTES

ODD = [-1, -10**6, True, False, 2.0, "3", None, 1.5, [], 2001, 10**6]  # 11 odd indices and caps
SMALL_ODD = ODD[:-2]  # without the two that an unbounded counting function would run to
CORRUPT = [0, -1, True, 2.0, "omega", None, [1, 1], {"finite": 1}]  # 8 values for a point's label field


def _digest(lines) -> str:
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode() + b"\n")
        count += 1
    return f"{count} lines, sha256 {h.hexdigest()}"


def _stream(make, *args):
    return lambda: _digest(json.dumps(M.model_to_dict(m)) for m in make(*args))


def _routes(check):
    for seq, (start, methods) in ROUTES.items():
        for method, terms in methods.items():
            for lo, hi in [(start, start + 3), (start, 7), (start - 1, start + 1), (5, 3), (start, 30)]:
                check(f"route {seq} {method} {lo}..{hi}", terms, lo, hi, None)
            for x in ODD:
                check(f"route {seq} {method} k={x!r}", terms, x, x, None)
                check(f"route {seq} {method} cap={x!r}", terms, start, start + 1, x)


def _counting(check):
    for name in ["k1", "k2", "count_I", "closed_form_I", "j_surjective", "count_L", "fubini"]:
        for x in [*range(7), 10, 40, *SMALL_ODD]:
            check(f"counting {name}({x!r})", getattr(counting, name), x)
    for lo, hi in [(1, 5), (0, 3), (3, 1), (True, 2), (1, 2.0), (-1, 2), (1, "3"), (1, 40)]:
        check(f"counting closed_form_I_terms({lo!r}, {hi!r})", counting.closed_form_I_terms, lo, hi)


def _kernel(check):
    for k in [0, 1, 3, 6, -1, 13]:
        for flags in itertools.product([True, False, 1, None], repeat=3):
            check(f"kernel root_split({k}, {', '.join(map(repr, flags))})", kernel.root_split, k, *flags)
    for k, cap in itertools.product([0, 7, 8, 12, 13], [None, -1, 8, True, 2.0]):
        check(f"kernel check_cap({k}, {cap!r})", kernel.check_cap, k, cap)


def _streams(check):
    for k in [*range(6), -1, 13, True, 2.0]:
        for constrained in [True, False, 1]:
            check(f"stream models({k!r}, {constrained!r})", _stream(enumeration.enumerate_models, k, constrained))
            check(f"stream surjective({k!r}, {constrained!r})",
                  _stream(enumeration.enumerate_surjective, k, constrained))
            check(f"stream split({k!r}, {constrained!r})", enumeration.surjective_first_point_split, k, constrained)
        for cap in [None, -1, 3]:
            check(f"stream partitions({k!r}, cap={cap!r})",
                  _stream(enumeration.enumerate_ordered_set_partitions, k, cap))


def _analytic(check):
    for name in ["egf_H", "egf_f", "egf_fubini"]:
        for order in [0, 1, 2, 5, 20, 60, 120, -1, 121, True, 2.0]:
            check(f"series {name}({order!r})", getattr(series, name), order)
    h = series.egf_H(10)
    for k in [*range(11), 11, -1, True, 2.0]:
        check(f"series egf_counts(egf_H(10), {k!r})", series.egf_counts, h, k)
    odd = series.TruncatedSeries([-5, 2, 0, 7, 1])  # a constant term that is neither 1 nor positive
    check("series ps_mul", series.ps_mul, series.egf_f(30), series.ps_exp(20))
    check("series ps_add", series.ps_add, odd, series.egf_fubini(6))
    check("series ps_reciprocal", series.ps_reciprocal, odd)
    check("series ps_reciprocal(0 + x)", series.ps_reciprocal, series.TruncatedSeries([0, 1]))
    for order in [0, 3, -1, 121]:
        check(f"series ps_constant(3, {order!r})", series.ps_constant, 3, order)
        check(f"series ps_exp({order!r})", series.ps_exp, order)
    check("series TruncatedSeries([])", series.TruncatedSeries, [])
    for k in [*range(30), 100, 170, 171, 1000, *SMALL_ODD]:
        check(f"asymptotics approx_A({k!r})", asymptotics.approx_A, k)
    for k in [1, 5, 20, 0, True]:
        check(f"asymptotics bound_ratio_I({k!r})", asymptotics.bound_ratio_I, k)
    for t in [0, 0.5, 1, math.e, 1e10, -0.1, -1 / math.e, -1, math.inf, math.nan, 10**400, True]:
        check(f"asymptotics lambert_w0({t!r:.24})", asymptotics.lambert_w0, t)  # 10**400 named by its first digits
    check("asymptotics constants()", asymptotics.constants)
    for k_max in [12, 0, 1, -1, True, 171]:
        check(f"asymptotics ratio_report({k_max!r})", asymptotics.ratio_report, k_max)
    check("asymptotics growth_bound_grid_check()", asymptotics.growth_bound_grid_check)


def _read_model(check, tag, doc):
    ok, m = check(f"{tag} read", M.model_from_dict, doc)
    if ok:
        check(f"{tag} validate", M.validate_model, m)
        expand, write = ((correspondence.expand_model, M.description_to_dict) if m.adjacency_constrained else
                         (correspondence.expand_colored, M.colored_description_to_dict))
        ok, d = check(f"{tag} expand", expand, m)
        if ok:
            check(f"{tag} write", lambda: json.dumps(write(d)))


def _read_description(check, tag, doc, k, constrained):
    read, validate, contract = (
        (M.description_from_dict, M.validate_description, correspondence.contract_description) if constrained else
        (M.colored_description_from_dict, M.validate_colored_description, correspondence.contract_colored))
    ok, d = check(f"{tag} read", read, doc)
    if ok:
        check(f"{tag} validate", validate, d)
        for kk in (k - 1, k, k + 1):
            check(f"{tag} contract k={kk}", lambda: json.dumps(M.model_to_dict(contract(d, kk))))


def _malformed(doc: dict, key: str) -> list:
    """(what, document) for documents of the wrong shape, and for `doc` with every label field set to "x"."""
    relabeled = [{f: v if f == "type" else "x" for f, v in entry.items()} for entry in doc[key]]
    return [("[]", []), ("null", None), ("'x'", "x"), (f"no {key}", {f: v for f, v in doc.items() if f != key}),
            (f"{key}={{}}", {**doc, key: {}}), (f"{key}=[null]", {**doc, key: [None]}),
            (f"{key}=[{{}}]", {**doc, key: [{}]}), (f"{key}=[Q]", {**doc, key: [{"type": "Q"}]}),
            (f"{key} labels 'x'", {**doc, key: relabeled})]


def _corrupted(doc: dict, key: str):
    """(what, document) for each point's label field and each CORRUPT value: the value replaces an R-point's
    label and joins an S-point's set."""
    entries = doc[key]
    for i, entry in enumerate(entries):
        (field,) = set(entry) - {"type"}
        for bad in CORRUPT:
            value = [*entry[field], bad] if type(entry[field]) is list else bad
            yield f"{key}[{i}].{field}+{bad!r}", {**doc, key: [*entries[:i], {**entry, field: value}, *entries[i + 1:]]}


def _wire(check):
    for k, constrained in itertools.product(range(4), [True, False]):
        theory = "I" if constrained else "L"
        models = list(enumeration.enumerate_models(k, constrained))
        for n, m in enumerate(models):
            tag = f"wire {theory} k={k} #{n}"
            doc = M.model_to_dict(m)
            desc = (M.description_to_dict(correspondence.expand_model(m)) if constrained else
                    M.colored_description_to_dict(correspondence.expand_colored(m)))
            bad_docs = [*_corrupted(doc, "points"), *(_malformed(doc, "points") if n == len(models) - 1 else [])]
            bad_descs = [*_corrupted(desc, "segments"), *(_malformed(desc, "segments") if n == len(models) - 1 else [])]
            _read_model(check, f"{tag} model", doc)
            _read_description(check, f"{tag} description", desc, k, constrained)
            for what, bad in bad_docs:
                _read_model(check, f"{tag} model {what}", bad)
            for what, bad in bad_descs:
                _read_description(check, f"{tag} description {what}", bad, k, constrained)


def _library(check):
    R, S = M.RPoint, M.SPoint
    descriptions = [(R(True),), (R("x"),), (S([1, "x"]),), (R(2), R(True)), (R(M.OMEGA_STAR), R(3)),
                    (R(1), R(M.OMEGA)), (R(M.OMEGA_STAR), R(M.OMEGA)), (R(0),), (S([]),), (R(2), S([2, M.ZETA])),
                    (S([1, M.OMEGA]), R(M.ZETA)), (R(1.0),), ()]
    for i, d in enumerate(descriptions):
        check(f"library validate_description #{i}", M.validate_description, d)
        check(f"library validate_colored_description #{i}", M.validate_colored_description, d)
        check(f"library description_to_dict #{i}", M.description_to_dict, d)
        check(f"library colored_description_to_dict #{i}", M.colored_description_to_dict, d)
        check(f"library contract_description #{i}", correspondence.contract_description, iter(d), 3)
        check(f"library contract_colored #{i}", correspondence.contract_colored, iter(d), 3)
        for n, m in itertools.product([0, 1, math.inf, -1, True], repeat=2):
            check(f"library classify_cnm #{i} ({n!r}, {m!r})", correspondence.classify_cnm, d, n, m)
    for k, flag in itertools.product([0, 2, 3, -1, True, 2.0], [True, False, 1, "false"]):
        for i, points in enumerate([(), (R(1), R(2)), (S([1, 2]), R(3)), (R(3), R(3)), (S([True]),)]):
            m = M.MulticoloredModel(k, points, flag)
            check(f"library validate_model({k!r}, #{i}, {flag!r})", M.validate_model, m)
            check(f"library model_to_dict({k!r}, #{i}, {flag!r})", M.model_to_dict, m)
            check(f"library expand_model({k!r}, #{i}, {flag!r})", correspondence.expand_model, m)
            check(f"library expand_colored({k!r}, #{i}, {flag!r})", correspondence.expand_colored, m)
    for size in range(5):
        for o in itertools.product([1, 2, 3], repeat=size):
            check(f"library is_finite_homogeneous{o}", correspondence.is_finite_homogeneous, o)
    check("library is_finite_homogeneous(9 points)", correspondence.is_finite_homogeneous, range(9))
    check("library run_checks(6, 10)", lambda: [tuple(r) for r in verify.run_checks(k_max=6, series_order=10)])


def outcomes(check):
    for section in [_routes, _counting, _kernel, _streams, _analytic, _wire, _library]:
        section(check)
