"""Command-line surface.

Subcommands: count, enumerate, verify, export, series, asymptotic
(constants | ratios), expand, contract. Long flag names only; all values are
exact decimals (JSON exports carry them as strings, since they outgrow 53-bit
floats early). Exit codes: 0 success, 1 check or runtime failure (a reader
that closes stdout early among them), 2 usage error. `--cap` on count,
enumerate and verify, the commands that walk, is the one way to raise or
lower the brute-force cap of 7. Each subparser carries its command's handler
(set_defaults), and main calls the one that the parsed arguments hold.

`count` and `export` read routes.ROUTES, the one table of counted sequences:
`--sequence` accepts exactly its keys, `count` checks the method against it
and prints that route's term k, and `export` lists the default route's
terms. The routes refuse an index below the first, a negative cap and an
index above their bound.

Each command imports only the layers it runs. At module level this file loads
routes, counting and kernel; series, verify, asymptotics, model, enumeration
and correspondence are imported inside the commands and routes that use them,
so `--help`, a recurrence count or a brute-force count starts without them.

Computed values are printed in full, however many digits they have; the
interpreter's int/str digit limit still applies to numbers parsed from argv
and from JSON input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal

from homcount import kernel
from homcount.routes import ROUTES

USAGE_ERROR = 2
FAILURE = 1


def _digits(value) -> str:
    """str(value) of an int or a Fraction, also past sys.get_int_max_str_digits():
    Decimal(int) is exact and converts without going through str. Both types have
    a numerator and a denominator (an int's is 1), so this module never loads
    fractions."""
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return f"{_digits(value.numerator)}/{_digits(value.denominator)}"


def _sequence(value: str) -> str:
    if value not in ROUTES:
        raise argparse.ArgumentTypeError(f"unknown sequence {value!r}; choose from {', '.join(ROUTES)}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homcount",
        description="Exact counts of homogeneous colored linear orderings, "
        "cross-validated against brute-force enumeration, generating functions, "
        "and asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print one sequence value")
    p.set_defaults(handler=cmd_count)
    p.add_argument("--sequence", type=_sequence, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--method", choices=["recurrence", "closed-form", "egf", "brute-force"])
    p.add_argument("--cap", type=int, help="brute-force cap override (default 7)")

    p = sub.add_parser("enumerate", help="stream models as JSON lines")
    p.set_defaults(handler=cmd_enumerate)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--unconstrained", action="store_true", help="drop the R-adjacency rule")
    p.add_argument("--cap", type=int)

    p = sub.add_parser("verify", help="run the full cross-check battery")
    p.set_defaults(handler=cmd_verify)
    p.add_argument("--k-max", type=int, default=25)
    p.add_argument("--terms", type=int, default=25, help="generating-function order")
    p.add_argument("--cap", type=int)

    p = sub.add_parser("export", help="write a sequence as b-file, csv, or json")
    p.set_defaults(handler=cmd_export)
    p.add_argument("--sequence", type=_sequence, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--format", choices=["b-file", "csv", "json"], required=True)
    p.add_argument("--output", default="-", help="destination path, - for stdout")

    p = sub.add_parser("series", help="print a generating-function coefficient table")
    p.set_defaults(handler=cmd_series)
    p.add_argument("--egf", choices=["H", "f", "fubini"], default="H")
    p.add_argument("--terms", type=int, default=10)

    p = sub.add_parser("asymptotic", help="singularity-analysis numbers")
    asub = p.add_subparsers(dest="asymptotic_command", required=True)  # dest: the name a usage error gives
    asub.add_parser("constants", help="pole, residues, limit ratio, growth bound").set_defaults(handler=cmd_constants)
    p = asub.add_parser("ratios", help="convergence table L/A and J/L")
    p.set_defaults(handler=cmd_ratios)
    p.add_argument("--k-max", type=int, default=12)

    p = sub.add_parser("expand", help="model JSON -> description JSON")
    p.set_defaults(handler=cmd_expand)
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")

    p = sub.add_parser("contract", help="description JSON -> model JSON")
    p.set_defaults(handler=cmd_contract)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--unconstrained", action="store_true", help="input is a colored description")
    p.add_argument("--input", default="-")
    p.add_argument("--output", default="-")

    return parser


def cmd_count(args) -> int:
    seq = args.sequence
    routes = ROUTES[seq][1]
    method = args.method or next(iter(routes))
    if method not in routes:
        raise ValueError(f"method {method!r} does not apply to sequence {seq}; valid: {', '.join(routes)}")
    (value,) = routes[method](args.k, args.k, args.cap)
    print(f"{seq}({args.k}) = {_digits(value)} [{method}]")
    if seq == "I" and method == "closed-form":
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
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name.ljust(width)}  {r.detail}")
    passed = sum(r.ok for r in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else FAILURE


def cmd_export(args) -> int:
    start, routes = ROUTES[args.sequence]
    values = next(iter(routes.values()))(start, args.k_max, None)
    terms = [(k, _digits(value)) for k, value in enumerate(values, start)]
    if args.format == "b-file":
        text = "".join(f"{k} {v}\n" for k, v in terms)
    elif args.format == "csv":
        text = "k,value\n" + "".join(f"{k},{v}\n" for k, v in terms)
    else:
        text = json.dumps({"sequence": args.sequence, "terms": [[k, v] for k, v in terms]}) + "\n"
    _write(args.output, text)
    return 0


def cmd_series(args) -> int:
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


def cmd_constants(args) -> int:
    from homcount import asymptotics

    for name, value in asymptotics.constants()._asdict().items():
        print(f"{name.ljust(11)} = {value:.10g}")
    return 0


def cmd_ratios(args) -> int:
    from homcount import asymptotics

    rows = asymptotics.ratio_report(args.k_max)
    print(f"{'k'.rjust(3)}  {'L(k)/A(k)'.ljust(18)}  {'J(k)/L(k)'.ljust(18)}")
    for row in rows:
        print(f"{str(row.k).rjust(3)}  {row.l_over_a:<18.12f}  {row.j_over_l:<18.12f}")
    return 0


def _read_json(path: str) -> dict:
    """The JSON document on stdin (path -) or in the file at `path`; a path that
    cannot be read is an OSError naming it, which main reports with exit 1, and
    a syntax error, a file that is not UTF-8 or a number past the interpreter's
    int/str digit limit is a ValueError naming the input (exit 2)."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
        where = "on stdin" if path == "-" else f"in {path}"
        raise ValueError(f"invalid JSON {where}: {exc}") from None
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout shows here, not in the flush at exit
        return code
    except BrokenPipeError:  # the reader left early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # keeps the flush at exit silent
        return FAILURE
    except ValueError as exc:  # BruteForceCapError and InvalidStructureError among them
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
