"""Command-line surface.

Subcommands: count, enumerate, verify, export, series, asymptotic
(constants | ratios), expand, contract. Long flag names only; all values are
exact decimals (JSON exports carry them as strings, since they outgrow
53-bit floats early). Exit codes: 0 success, 1 check or runtime failure,
2 usage error. HOMCOUNT_CAP overrides the default brute-force cap of 7.

ROUTES is the one table of counted sequences: for each sequence, the first
index of its term list and its methods, each a function value(k, cap) with the
default method first. `count` checks the method and the index against it and
`export` lists the default route. Each brute-force route applies the cap
(kernel.check_cap) and then runs one kernel.root_split walk.

Each command imports only the layers it runs. At module level this file loads
counting and kernel, the two layers ROUTES is built from; series, verify,
asymptotics, model, enumeration and correspondence are imported inside the
commands and routes that use them, so `--help`, a recurrence count or a
brute-force count starts without them.

Computed values are printed in full, however many digits they have; the
interpreter's int/str digit limit still applies to numbers parsed from argv
and from JSON input.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter

from homcount import counting, kernel
from homcount.counting import SequenceId

USAGE_ERROR = 2
FAILURE = 1

Route = Callable[[int, int | None], int]  # value(k, cap)


def _exact(fn: Callable[[int], int]) -> Route:
    """A recurrence or closed form: no cap applies."""
    return lambda k, cap: fn(k)


def _egf(builder: str) -> Route:
    """k! times coefficient k of the series `series.<builder>` built to order k."""

    def value(k: int, cap: int | None) -> int:
        from homcount import series

        return series.egf_counts(getattr(series, builder)(k), k)

    return value


def _walk(pick: Callable, constrained: bool, surjective: bool, r_points: bool = True) -> Route:
    """The cap check, then one walk; `pick` reduces its (S-first, R-first) split."""

    def value(k: int, cap: int | None) -> int:
        kernel.check_cap(k, cap)
        return pick(kernel.root_split(k, constrained, surjective, r_points))

    return value


# sequence -> (first index of its term list, {method: route}), default method first
ROUTES: dict[SequenceId, tuple[int, dict[str, Route]]] = {
    SequenceId.I: (1, {"recurrence": _exact(counting.count_I), "closed-form": _exact(counting.closed_form_I),
                       "brute-force": _walk(sum, True, False)}),
    SequenceId.L: (0, {"recurrence": _exact(counting.count_L), "egf": _egf("egf_H"),
                       "brute-force": _walk(sum, False, False)}),
    SequenceId.J_SURJECTIVE: (0, {"recurrence": _exact(counting.j_surjective), "egf": _egf("egf_f"),
                                  "brute-force": _walk(sum, False, True)}),
    SequenceId.K1: (0, {"recurrence": _exact(counting.k1), "brute-force": _walk(itemgetter(0), True, True)}),
    SequenceId.K2: (0, {"recurrence": _exact(counting.k2), "brute-force": _walk(itemgetter(1), True, True)}),
    SequenceId.FUBINI: (0, {"recurrence": _exact(counting.fubini), "egf": _egf("egf_fubini"),
                            "brute-force": _walk(sum, False, True, r_points=False)}),
    SequenceId.I_CLOSED_NONEMPTY: (1, {"closed-form": _exact(counting.closed_form_I),
                                       "brute-force": _walk(lambda split: sum(split) - 1, True, False)}),
}


def _digits(value: int | Fraction) -> str:
    """str(value), also past sys.get_int_max_str_digits(): Decimal(int) is exact
    and converts without going through str."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return _digits(value.numerator)
        return f"{_digits(value.numerator)}/{_digits(value.denominator)}"
    return str(Decimal(value))


def _sequence(value: str) -> SequenceId:
    try:
        return SequenceId(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown sequence {value!r}; choose from "
            + ", ".join(s.value for s in SequenceId)
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcount",
        description="Exact counts of homogeneous colored linear orderings, "
        "cross-validated against brute-force enumeration, generating functions, "
        "and asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print one sequence value")
    p.add_argument("--sequence", type=_sequence, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=["recurrence", "closed-form", "egf", "brute-force"])
    p.add_argument("--cap", type=int, help="brute-force cap override (default 7)")

    p = sub.add_parser("enumerate", help="stream models as JSON lines")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--unconstrained", action="store_true", help="drop the R-adjacency rule")
    p.add_argument("--cap", type=int)

    p = sub.add_parser("verify", help="run the full cross-check battery")
    p.add_argument("--k-max", type=int, default=25)
    p.add_argument("--terms", type=int, default=25, help="generating-function order")
    p.add_argument("--cap", type=int)

    p = sub.add_parser("export", help="write a sequence as b-file, csv, or json")
    p.add_argument("--sequence", type=_sequence, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--format", choices=["b-file", "csv", "json"], required=True)
    p.add_argument("--output", default="-", help="destination path, - for stdout")

    p = sub.add_parser("series", help="print a generating-function coefficient table")
    p.add_argument("--egf", choices=["H", "f", "fubini"], default="H")
    p.add_argument("--terms", type=int, default=10)

    p = sub.add_parser("asymptotic", help="singularity-analysis numbers")
    asub = p.add_subparsers(dest="asymptotic_command", required=True)
    asub.add_parser("constants", help="pole, residues, limit ratio, growth bound")
    pr = asub.add_parser("ratios", help="convergence table L/A and J/L")
    pr.add_argument("--k-max", type=int, default=12)

    p = sub.add_parser("expand", help="model JSON -> description JSON")
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")

    p = sub.add_parser("contract", help="description JSON -> model JSON")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--unconstrained", action="store_true", help="input is a colored description")
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")

    return parser


def cmd_count(args) -> int:
    seq: SequenceId = args.sequence
    start, routes = ROUTES[seq]
    method = args.method or next(iter(routes))
    if method not in routes:
        print(
            f"method {method!r} does not apply to sequence {seq.value}; "
            f"valid: {', '.join(routes)}",
            file=sys.stderr,
        )
        return USAGE_ERROR
    if args.k < start:
        print(f"sequence {seq.value} starts at k={start}", file=sys.stderr)
        return USAGE_ERROR
    value = routes[method](args.k, args.cap)
    print(f"{seq.value}({args.k}) = {_digits(value)} [{method}]")
    if seq == SequenceId.I and method == "closed-form":
        print("note: excludes the empty ordering; recurrence value is +1")
    return 0


def cmd_enumerate(args) -> int:
    kernel.check_cap(args.k, args.cap)
    from homcount import enumeration
    from homcount.model import model_to_dict

    for m in enumeration.enumerate_models(args.k, not args.unconstrained):
        print(json.dumps(model_to_dict(m)))
    return 0


def cmd_verify(args) -> int:
    from homcount import verify

    results = verify.run_checks(k_max=args.k_max, series_order=args.terms, cap=args.cap)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.name.ljust(width)}  {r.detail}")
        failures += 0 if r.ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else FAILURE


def _export_lines(seq: SequenceId, k_max: int, fmt: str) -> str:
    start, routes = ROUTES[seq]
    default = next(iter(routes.values()))
    terms = [(k, _digits(default(k, None))) for k in range(start, k_max + 1)]
    if fmt == "b-file":
        return "".join(f"{k} {v}\n" for k, v in terms)
    if fmt == "csv":
        return "k,value\n" + "".join(f"{k},{v}\n" for k, v in terms)
    return json.dumps({"sequence": seq.value, "terms": [[k, v] for k, v in terms]}) + "\n"


def cmd_export(args) -> int:
    seq: SequenceId = args.sequence
    start = ROUTES[seq][0]
    if args.k_max < start:
        print(f"sequence {seq.value} starts at k={start}", file=sys.stderr)
        return USAGE_ERROR
    _write(args.output, _export_lines(seq, args.k_max, args.format))
    return 0


def cmd_series(args) -> int:
    if args.terms < 0:
        print(f"--terms must be nonnegative, got {args.terms}", file=sys.stderr)
        return USAGE_ERROR
    from homcount import series

    builders = {"H": series.egf_H, "f": series.egf_f, "fubini": series.egf_fubini}
    s = builders[args.egf](args.terms)
    rows = [
        (str(k), _digits(s.coeffs[k]), _digits(series.egf_counts(s, k)))
        for k in range(args.terms + 1)
    ]
    widths = [max(len(r[i]) for r in rows + [("k", "coefficient", "count")]) for i in range(3)]
    print(f"{'k'.ljust(widths[0])}  {'coefficient'.ljust(widths[1])}  {'count'.ljust(widths[2])}")
    for row in rows:
        print(f"{row[0].ljust(widths[0])}  {row[1].ljust(widths[1])}  {row[2].ljust(widths[2])}")
    return 0


def cmd_asymptotic(args) -> int:
    from homcount import asymptotics

    if args.asymptotic_command == "constants":
        from dataclasses import fields

        c = asymptotics.constants()
        for field in fields(c):
            print(f"{field.name.ljust(11)} = {getattr(c, field.name):.10g}")
        return 0
    rows = asymptotics.ratio_report(args.k_max)
    print(f"{'k'.rjust(3)}  {'L(k)/A(k)'.ljust(18)}  {'J(k)/L(k)'.ljust(18)}")
    for row in rows:
        print(f"{str(row.k).rjust(3)}  {row.l_over_a:<18.12f}  {row.j_over_l:<18.12f}")
    return 0


def _read_json(path: str) -> dict:
    """The JSON document on stdin (path -) or in the file at `path`; a path that
    cannot be read is an OSError naming it, which main reports with exit 1."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    """`text` to stdout (path -) or to the file at `path`; a path that cannot be
    written is an OSError naming it, which main reports with exit 1."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def cmd_expand(args) -> int:
    from homcount.correspondence import expand_colored, expand_model
    from homcount.model import colored_description_to_dict, description_to_dict, model_from_dict

    model = model_from_dict(_read_json(args.input))
    if model.adjacency_constrained:
        payload = description_to_dict(expand_model(model))
    else:
        payload = colored_description_to_dict(expand_colored(model))
    _write(args.output, json.dumps(payload) + "\n")
    return 0


def cmd_contract(args) -> int:
    from homcount.correspondence import contract_colored, contract_description
    from homcount.model import colored_description_from_dict, description_from_dict, model_to_dict

    data = _read_json(args.input)
    if args.unconstrained:
        model = contract_colored(colored_description_from_dict(data), args.k)
    else:
        model = contract_description(description_from_dict(data), args.k)
    _write(args.output, json.dumps(model_to_dict(model)) + "\n")
    return 0


_COMMANDS = {
    "count": cmd_count,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
    "export": cmd_export,
    "series": cmd_series,
    "asymptotic": cmd_asymptotic,
    "expand": cmd_expand,
    "contract": cmd_contract,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:  # BruteForceCapError and InvalidStructureError among them
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
