"""End-to-end CLI behavior: outputs, exit codes, file formats, failure paths."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcount import correspondence, counting, enumeration, series, verify
from homcount.cli import main
from homcount.enumeration import surjective_first_point_split
from homcount.kernel import BruteForceCapError
from homcount.model import ColoredDescription, OrderingDescription, SPoint
from homcount.routes import ROUTES

GOLDEN_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "golden" / "cli.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_on_stdin(argv, text):
    """main(argv) with `text` on stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def test_default_routes():
    def default(seq, k):
        (value,) = next(iter(ROUTES[seq][1].values()))(k, k, None)
        return value

    assert default("I", 5) == 5487
    assert default("L", 6) == 131244
    assert default("K1", 2) == 5
    assert default("Fubini", 4) == 75
    assert default("I_closed_nonempty", 2) == 11


def test_every_brute_force_route_applies_the_cap():
    for seq, (_, routes) in ROUTES.items():
        with pytest.raises(BruteForceCapError, match="cap of 3"):
            routes["brute-force"](4, 4, 3)


def test_golden_commands_reproduce_their_bytes(monkeypatch):
    # the command pool recorded for the benchmark's cli-session workload, replayed in process
    monkeypatch.setenv("COLUMNS", "80")
    commands = json.loads(GOLDEN_CLI.read_text())["commands"]
    assert len(commands) == 162
    mismatched = [
        entry["argv"]
        for entry in commands
        if run_on_stdin(entry["argv"], entry["stdin"])[:2] != (entry["exit"], entry["stdout"])
    ]
    assert mismatched == []


# run `python -m homcount <argv>` in a fresh interpreter, then report its exit code
# and the package modules it imported, with any of _HEAVY and fractions, as the last line of stderr
_HEAVY = ("dataclasses", "inspect")  # stdlib modules that no command needs, each costly to import
_COLD_RUN = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('homcount', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    f"print(code, *sorted(m for m in sys.modules if m.startswith('homcount.') or m in {_HEAVY + ('fractions',)!r}), file=sys.stderr)\n"
)
_LAYERS = ("model", "enumeration", "correspondence", "series", "asymptotics", "verify")
_MODEL_DOC = '{"k": 2, "adjacency_constrained": true, "points": [{"type": "R", "color": 1}]}'
_DESCRIPTION_DOC = '{"segments": [{"type": "block", "kind": {"finite": 1}}]}'


@pytest.mark.parametrize(
    "argv,stdin,layers",
    [
        (["--help"], None, set()),
        (["count", "--sequence", "I", "--k", "3"], None, set()),
        (["export", "--sequence", "I", "--k-max", "5", "--format", "csv"], None, set()),
        (["count", "--sequence", "L", "--k", "4", "--method", "brute-force"], None, set()),
        (["series", "--terms", "4"], None, {"series"}),
        (["expand"], _MODEL_DOC, {"model", "correspondence"}),
        (["contract", "--k", "2"], _DESCRIPTION_DOC, {"model", "correspondence"}),
        (["asymptotic", "constants"], None, {"asymptotics"}),
        (["verify", "--k-max", "2"], None, set(_LAYERS)),
    ],
    ids=["help", "count", "export", "count-brute-force", "series", "expand", "contract", "asymptotic", "verify"],
)
def test_commands_import_only_the_layers_they_run(argv, stdin, layers, fresh_env):
    out = subprocess.run([sys.executable, "-c", _COLD_RUN, *argv], input=stdin, env=fresh_env(), capture_output=True,
                         text=True)
    code, *loaded = out.stderr.splitlines()[-1].split()
    assert code == "0"
    assert {layer for layer in _LAYERS if f"homcount.{layer}" in loaded} == layers
    assert not set(_HEAVY) & set(loaded)
    assert ("fractions" in loaded) == bool(layers & {"series", "verify"})  # only the exact series use it


def test_count_recurrence(capsys):
    code, out, _ = run(capsys, "count", "--sequence", "I", "--k", "5", "--method", "recurrence")
    assert code == 0
    assert "I(5) = 5487 [recurrence]" in out


def test_count_prints_values_past_the_int_digit_limit(capsys):
    code, out, _ = run(capsys, "count", "--sequence", "I", "--k", "1500")
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        want = str(counting.count_I(1500))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > limit
    assert out == f"I(1500) = {want} [recurrence]\n"


def test_argv_numbers_keep_the_int_digit_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--sequence", "I", "--k", "1" * (sys.get_int_max_str_digits() + 1)])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_count_default_method(capsys):
    code, out, _ = run(capsys, "count", "--sequence", "L", "--k", "3")
    assert code == 0
    assert "L(3) = 95 [recurrence]" in out


def test_count_egf(capsys):
    code, out, _ = run(capsys, "count", "--sequence", "L", "--k", "6", "--method", "egf")
    assert code == 0
    assert "L(6) = 131244 [egf]" in out


def test_count_brute_force(capsys):
    code, out, _ = run(capsys, "count", "--sequence", "I", "--k", "3", "--method", "brute-force")
    assert code == 0
    assert "I(3) = 71 [brute-force]" in out


def test_count_closed_form_prints_offset_note(capsys):
    code, out, _ = run(capsys, "count", "--sequence", "I", "--k", "2", "--method", "closed-form")
    assert code == 0
    assert "I(2) = 11 [closed-form]" in out
    assert "note: excludes the empty ordering; recurrence value is +1" in out


def test_count_methods_agree(capsys):
    cases = {
        "I": ["recurrence", "brute-force"],
        "L": ["recurrence", "egf", "brute-force"],
        "J_surjective": ["recurrence", "egf", "brute-force"],
        "K1": ["recurrence", "brute-force"],
        "K2": ["recurrence", "brute-force"],
        "Fubini": ["recurrence", "egf", "brute-force"],
    }
    for seq, methods in cases.items():
        values = set()
        for method in methods:
            code, out, _ = run(capsys, "count", "--sequence", seq, "--k", "4", "--method", method)
            assert code == 0
            values.add(out.splitlines()[0].split("=")[1].split("[")[0].strip())
        assert len(values) == 1, (seq, values)


def test_count_invalid_method_pair_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "--sequence", "K1", "--k", "3", "--method", "egf")
    assert code == 2
    assert "does not apply" in err


def test_count_cap_refusal_names_cap(capsys):
    code, _, err = run(capsys, "count", "--sequence", "I", "--k", "9", "--method", "brute-force")
    assert code == 2
    assert "cap of 7" in err


def test_count_cap_override(capsys):
    code, out, _ = run(
        capsys, "count", "--sequence", "I", "--k", "8", "--method", "brute-force", "--cap", "8"
    )
    assert code == 0
    assert "14016774" in out


@pytest.mark.parametrize("value", ["0", "abc", "-3", "20"])
def test_the_environment_sets_no_cap(capsys, monkeypatch, value):
    # the cap comes from --cap or the cap argument only: an environment variable changes nothing
    monkeypatch.delenv("HOMCOUNT_CAP", raising=False)
    unset = run(capsys, "verify")
    assert unset[0] == 0
    monkeypatch.setenv("HOMCOUNT_CAP", value)
    assert run(capsys, "verify") == unset
    code, out, err = run(capsys, "count", "--sequence", "I", "--k", "8", "--method", "brute-force")
    assert (code, out) == (2, "")
    assert "cap of 7" in err
    assert surjective_first_point_split(4, True) == (counting.k1(4), counting.k2(4))


def test_unknown_sequence_is_usage_error():
    code, out, err = run_on_stdin(["count", "--sequence", "X", "--k", "1"], "")
    assert (code, out) == (2, "")
    assert err.endswith(
        "unknown sequence 'X'; choose from I, L, J_surjective, K1, K2, Fubini, I_closed_nonempty\n"
    )


@pytest.mark.parametrize("argv,missing", [([], "homcount: error: the following arguments are required: command"),
                                          (["asymptotic"], "homcount asymptotic: error: the following arguments "
                                                           "are required: asymptotic_command")])
def test_a_missing_subcommand_is_a_usage_error(argv, missing):
    # argparse names a missing subcommand by its subparsers' dest; no handler reads either dest
    code, out, err = run_on_stdin(argv, "")
    assert (code, out) == (2, "")
    assert err.endswith(missing + "\n")


def test_enumerate_streams_json_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--k", "1")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines == [
        {"k": 1, "adjacency_constrained": True, "points": []},
        {"k": 1, "adjacency_constrained": True, "points": [{"type": "R", "color": 1}]},
        {"k": 1, "adjacency_constrained": True, "points": [{"type": "S", "colors": [1]}]},
    ]


def test_enumerate_unconstrained(capsys):
    code, out, _ = run(capsys, "enumerate", "--k", "2", "--unconstrained")
    assert code == 0
    assert len(out.splitlines()) == 14


def test_enumerate_respects_cap(capsys):
    code, _, err = run(capsys, "enumerate", "--k", "9")
    assert code == 2
    assert "cap of 7" in err


def test_enumerate_beyond_the_bound_is_usage_error(capsys):
    code, out, err = run(capsys, "enumerate", "--k", "13", "--cap", "40")
    assert code == 2
    assert out == ""
    assert "beyond k=12" in err and "Traceback" not in err


def test_brute_force_count_beyond_the_bound_is_usage_error(capsys):
    code, _, err = run(capsys, "count", "--sequence", "L", "--k", "13", "--method", "brute-force", "--cap", "40")
    assert code == 2
    assert "beyond k=12" in err and "Traceback" not in err


def test_recurrence_routes_refuse_above_their_bound(capsys):
    # a million would grow the tables for hours; the refusal comes before any of them grows
    for argv, got in ((["count", "--sequence", "I", "--k", "1000000"], 1000000),
                      (["export", "--sequence", "L", "--k-max", "2001", "--format", "csv"], 2001)):
        assert run(capsys, *argv) == (2, "", f"recurrence not supported beyond k=2000, got {got}\n")


def test_closed_form_routes_refuse_above_their_bound(capsys):
    for argv in (["count", "--sequence", "I", "--k", "101", "--method", "closed-form"],
                 ["export", "--sequence", "I_closed_nonempty", "--k-max", "101", "--format", "b-file"]):
        assert run(capsys, *argv) == (2, "", "closed-form not supported beyond k=100, got 101\n")


def test_a_closed_stdout_ends_quietly(fresh_env):
    # `homcount enumerate --k 5 | head -1`: about 0.5 MB of output, more than a pipe holds, and the reader
    # leaves after the first line
    proc = subprocess.Popen([sys.executable, "-m", "homcount", "enumerate", "--k", "5"], env=fresh_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"{")
    proc.stdout.close()
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert proc.wait() == 1


# each series route refuses an order above series.MAX_ORDER (120) before building anything
@pytest.mark.parametrize(
    "argv,message",
    [
        (["count", "--sequence", "L", "--k", "121", "--method", "egf"],
         "series not supported beyond order 120, got 121"),
        (["count", "--sequence", "J_surjective", "--k", "10000", "--method", "egf"],
         "series not supported beyond order 120, got 10000"),
        (["count", "--sequence", "Fubini", "--k", "121", "--method", "egf"],
         "series not supported beyond order 120, got 121"),
        (["series", "--egf", "f", "--terms", "100000"], "series not supported beyond order 120, got 100000"),
        (["verify", "--terms", "121"], "series not supported beyond order 120, got 121"),
    ],
    ids=["count-egf-L", "count-egf-J", "count-egf-fubini", "series", "verify"],
)
def test_series_order_beyond_the_bound_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err and "Traceback" not in err


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--k-max", "6")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_verify_k_max_zero(capsys):
    code, out, _ = run(capsys, "verify", "--k-max", "0")
    assert code == 0
    assert "FAIL" not in out


def test_verify_detects_corrupted_recurrence(capsys, monkeypatch):
    healthy = counting.count_I

    def corrupted(k):
        return healthy(k) + (1 if k == 3 else 0)

    monkeypatch.setattr(counting, "count_I", corrupted)
    code, out, _ = run(capsys, "verify", "--k-max", "4")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert any("I-sequence reference terms" in line for line in failed)
    assert any("k=3" in line for line in failed)


def test_verify_reports_a_raising_check_and_goes_on(capsys, monkeypatch):
    def broken(lo, hi, cap):
        raise RuntimeError("walk broke")

    monkeypatch.setitem(ROUTES["Fubini"][1], "brute-force", broken)
    code, out, _ = run(capsys, "verify", "--k-max", "4")
    assert code == 1
    lines = out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1
    assert "ordered set partition counts" in failed[0]
    assert failed[0].endswith("raised RuntimeError: walk broke")
    names = [r.name for r in verify.run_checks(k_max=4)]
    after = names[names.index("ordered set partition counts") + 1:]
    assert after and all(any(name in line for line in lines) for name in after)
    assert lines[-1] == f"{len(names) - 1}/{len(names)} checks passed"


_ROUTE_ENTRIES = [(seq, method) for seq, (_, methods) in ROUTES.items() for method in methods]


# every entry of the route table feeds a route-agreement check, so one wrong term fails verify
@pytest.mark.parametrize("seq,method", _ROUTE_ENTRIES, ids=[f"{seq}-{method}" for seq, method in _ROUTE_ENTRIES])
def test_verify_catches_a_corrupted_route(monkeypatch, seq, method):
    healthy = ROUTES[seq][1][method]

    def corrupted(lo, hi, cap):
        return [term + (k == 2) for k, term in enumerate(healthy(lo, hi, cap), lo)]

    monkeypatch.setitem(ROUTES[seq][1], method, corrupted)
    assert not all(r.ok for r in verify.run_checks(k_max=4, series_order=8, cap=4))


def test_series_ring_check_inverts_a_constant_term_other_than_one(monkeypatch):
    # a reciprocal that takes |x_0| is right on every counting EGF, whose constant term is 1
    healthy = series.ps_reciprocal

    def unsigned(a):
        return healthy(series.TruncatedSeries([abs(a.coeffs[0]), *a.coeffs[1:]]))

    monkeypatch.setattr(series, "ps_reciprocal", unsigned)
    results = {r.name: r for r in verify.run_checks(k_max=4, series_order=8, cap=4)}
    assert [name for name, r in results.items() if not r.ok] == ["series ring identities"]


def test_round_trip_check_fails_on_an_invalid_expansion(monkeypatch):
    invalid = {
        "expand_model": lambda m: OrderingDescription([SPoint([])]),
        "expand_colored": lambda m: ColoredDescription([SPoint([])]),
    }
    for name, expand in invalid.items():
        with monkeypatch.context() as patch:
            patch.setattr(correspondence, name, expand)
            results = {r.name: r for r in verify.run_checks(k_max=2)}
        assert not results["round-trip bijection"].ok, name


def test_round_trip_check_counts_the_streams_it_drains(monkeypatch):
    healthy = enumeration.enumerate_models

    def short(k, constrained=True):  # drops the empty model from one stream
        models = healthy(k, constrained)
        if (k, constrained) == (3, False):
            next(models)
        return models

    monkeypatch.setattr(enumeration, "enumerate_models", short)
    failed = [r for r in verify.run_checks(k_max=4) if not r.ok]
    assert failed == [
        ("round-trip bijection", False, "unconstrained stream at k=3 has 94 models, the recurrence counts 95")
    ]


def test_export_b_file_exact_bytes(capsys):
    code, out, _ = run(capsys, "export", "--sequence", "I", "--k-max", "3", "--format", "b-file")
    assert code == 0
    assert out == "1 3\n2 12\n3 71\n"
    code, out, _ = run(capsys, "export", "--sequence", "L", "--k-max", "2", "--format", "b-file")
    assert code == 0
    assert out == "0 1\n1 3\n2 14\n"


def test_export_csv(capsys):
    code, out, _ = run(capsys, "export", "--sequence", "L", "--k-max", "0", "--format", "csv")
    assert code == 0
    assert out == "k,value\n0,1\n"


def test_export_json_values_are_strings(capsys):
    code, out, _ = run(capsys, "export", "--sequence", "I", "--k-max", "13", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["sequence"] == "I"
    assert data["terms"][0] == [1, "3"]
    assert data["terms"][-1] == [13, "63638447941551"]
    assert all(isinstance(v, str) for _, v in data["terms"])


def test_export_to_file(tmp_path, capsys):
    target = tmp_path / "b013.txt"
    code, _, _ = run(
        capsys, "export", "--sequence", "I", "--k-max", "2", "--format", "b-file",
        "--output", str(target),
    )
    assert code == 0
    assert target.read_text() == "1 3\n2 12\n"


def test_export_unwritable_destination(tmp_path, capsys):
    code, _, err = run(
        capsys, "export", "--sequence", "I", "--k-max", "2", "--format", "b-file",
        "--output", str(tmp_path / "missing" / "out.txt"),
    )
    assert code == 1
    assert "cannot write" in err


def test_expand_unwritable_destination(tmp_path, capsys):
    src = tmp_path / "model.json"
    src.write_text(json.dumps(_model()))
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "expand", "--input", str(src), "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith(f"cannot write {target}: ")


def test_contract_missing_input(tmp_path, capsys):
    src = tmp_path / "missing.json"
    code, out, err = run(capsys, "contract", "--k", "3", "--unconstrained", "--input", str(src))
    assert code == 1
    assert out == ""
    assert err.startswith(f"cannot read {src}: ")


def test_expand_directory_input(tmp_path, capsys):
    code, out, err = run(capsys, "expand", "--input", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"cannot read {tmp_path}: ")


def test_export_below_sequence_start(capsys):
    code, _, err = run(capsys, "export", "--sequence", "I", "--k-max", "0", "--format", "csv")
    assert code == 2
    assert "starts at k=1" in err


def test_series_table(capsys):
    code, out, _ = run(capsys, "series", "--egf", "H", "--terms", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["k", "coefficient", "count"]
    assert lines[3].split() == ["2", "7", "14"]
    assert lines[4].split() == ["3", "95/6", "95"]


def test_series_fubini(capsys):
    code, out, _ = run(capsys, "series", "--egf", "fubini", "--terms", "3")
    assert code == 0
    assert out.splitlines()[-1].split() == ["3", "13/6", "13"]


def test_asymptotic_constants_output(capsys):
    code, out, _ = run(capsys, "asymptotic", "constants")
    assert code == 0
    assert "Z           = 0.442854401" in out
    assert "M           = 2.122431846" in out


def test_asymptotic_ratios(capsys):
    code, out, _ = run(capsys, "asymptotic", "ratios", "--k-max", "3")
    assert code == 0
    assert len(out.splitlines()) == 5  # header + 4 rows


def test_expand_contract_round_trip(tmp_path, capsys):
    model = {
        "k": 3,
        "adjacency_constrained": True,
        "points": [{"type": "S", "colors": [1, 3]}, {"type": "R", "color": 2}],
    }
    src = tmp_path / "model.json"
    mid = tmp_path / "description.json"
    back = tmp_path / "model2.json"
    src.write_text(json.dumps(model))
    code, _, _ = run(capsys, "expand", "--input", str(src), "--output", str(mid))
    assert code == 0
    assert json.loads(mid.read_text()) == {
        "segments": [
            {"type": "shuffle", "kinds": [{"finite": 1}, {"finite": 3}]},
            {"type": "block", "kind": {"finite": 2}},
        ]
    }
    code, _, _ = run(capsys, "contract", "--k", "3", "--input", str(mid), "--output", str(back))
    assert code == 0
    assert json.loads(back.read_text()) == model


def test_expand_colored_goes_through_color_format(tmp_path, capsys):
    model = {
        "k": 2,
        "adjacency_constrained": False,
        "points": [{"type": "R", "color": 1}, {"type": "R", "color": 2}],
    }
    src = tmp_path / "model.json"
    src.write_text(json.dumps(model))
    code, out, _ = run(capsys, "expand", "--input", str(src))
    assert code == 0
    assert json.loads(out) == {
        "segments": [{"type": "block", "color": 1}, {"type": "block", "color": 2}]
    }


def test_contract_unconstrained_flag(tmp_path, capsys):
    desc = {"segments": [{"type": "block", "color": 1}, {"type": "block", "color": 2}]}
    src = tmp_path / "desc.json"
    src.write_text(json.dumps(desc))
    code, out, _ = run(capsys, "contract", "--k", "2", "--unconstrained", "--input", str(src))
    assert code == 0
    model = json.loads(out)
    assert model["adjacency_constrained"] is False
    assert len(model["points"]) == 2


def test_expand_invalid_model_cites_axiom(tmp_path, capsys):
    model = {
        "k": 2,
        "adjacency_constrained": True,
        "points": [{"type": "R", "color": 1}, {"type": "R", "color": 2}],
    }
    src = tmp_path / "model.json"
    src.write_text(json.dumps(model))
    code, _, err = run(capsys, "expand", "--input", str(src))
    assert code == 2
    assert "Tprime.3b" in err


def test_contract_out_of_range_kind(tmp_path, capsys):
    desc = {"segments": [{"type": "block", "kind": "omega"}]}
    src = tmp_path / "desc.json"
    src.write_text(json.dumps(desc))
    code, _, err = run(capsys, "contract", "--k", "3", "--input", str(src))
    assert code == 2
    assert "finite-label range" in err


def test_contract_names_the_same_kind_under_every_hash_seed(fresh_env):
    # a shuffle's kinds are stored in canonical order, so the named kind must not follow the hash seed
    doc = json.dumps({"segments": [{"type": "shuffle", "kinds": ["zeta", "omega", "omega_star"]}]})
    errors = []
    for seed in range(4):
        out = subprocess.run([sys.executable, "-m", "homcount", "contract", "--k", "3"], input=doc,
                             env=fresh_env(PYTHONHASHSEED=str(seed)), capture_output=True, text=True)
        assert out.returncode == 2
        errors.append(out.stderr)
    assert errors == ["description not in finite-label range: kind omega with k=3\n"] * 4


def _model(**fields):
    points = [{"type": "S", "colors": [1, 2]}, {"type": "R", "color": 3}]
    return {"k": 3, "adjacency_constrained": True, "points": points, **fields}


# the wrongly typed inputs of the ROADMAP's strict-wire-format table, one per row
@pytest.mark.parametrize(
    "argv,doc,message",
    [
        (["expand"], _model(k="3"), "k must be an integer, got '3'"),
        (["expand"], _model(points=[{"type": "S", "colors": "12"}]), "colors must be a list, got '12'"),
        (["expand"], _model(adjacency_constrained="yes"),
         "adjacency_constrained must be true or false, got 'yes'"),
        (["expand"], _model(points=[{"type": "R", "color": 1.0}]), "color must be an integer, got 1.0"),
        (["expand"], _model(points=[{"type": "R", "color": True}]), "color must be an integer, got True"),
        (["contract", "--k", "3"], {"segments": [{"type": "block", "kind": {"finite": True}}]},
         "finite size must be an integer, got True"),
        (["contract", "--k", "3"], {"segments": [{"type": "shuffle", "kinds": "12"}]},
         "kinds must be a list, got '12'"),
        (["contract", "--k", "3"], {"segments": [{"type": "shuffle", "kinds": [{"finite": 1.0}]}]},
         "finite size must be an integer, got 1.0"),
        (["contract", "--k", "3", "--unconstrained"], {"segments": [{"type": "shuffle", "colors": "12"}]},
         "colors must be a list, got '12'"),
        (["contract", "--k", "3", "--unconstrained"], {"segments": [{"type": "block", "color": 1.0}]},
         "color must be an integer, got 1.0"),
        (["contract", "--k", "3", "--unconstrained"], {"segments": [{"type": "shuffle", "colors": [1.0]}]},
         "a color in colors must be an integer, got 1.0"),
    ],
    ids=["k-str", "colors-str", "flag-str", "color-float", "color-bool", "finite-bool", "kinds-str",
         "kinds-finite-float", "colored-colors-str", "colored-color-float", "colored-colors-float"],
)
def test_wrongly_typed_fields_are_usage_errors(tmp_path, capsys, argv, doc, message):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, "--input", str(src))
    assert code == 2
    assert out == ""
    assert err and "Traceback" not in err
    assert message in err


# a model whose k has one digit more than int() parses from a string
_LONG_NUMBER_MODEL = f'{{"k": {"9" * (sys.get_int_max_str_digits() + 1)}, "points": []}}'
_LONG_NUMBER_ERROR = f"Exceeds the limit ({sys.get_int_max_str_digits()} digits) for integer string conversion"


# input defects that once ended in a traceback (deep nesting), were silently
# accepted (negative k, entries merged by a set) or did not name their input
# (an over-long number), one per row
@pytest.mark.parametrize(
    "argv,text,message",
    [
        (["expand"], "[" * 100000 + "]" * 100000, "JSON input is nested too deeply"),
        (["contract", "--k", "-5"], json.dumps({"segments": []}), "k must be nonnegative, got -5"),
        (["contract", "--k", "-5", "--unconstrained"], json.dumps({"segments": []}),
         "k must be nonnegative, got -5"),
        (["expand"], json.dumps(_model(k=-3, points=[])), "k must be nonnegative, got -3"),
        (["expand"], json.dumps(_model(points=[{"type": "S", "colors": [1, 1]}])),
         "colors repeats an entry: [1, 1]"),
        (["contract", "--k", "3", "--unconstrained"],
         json.dumps({"segments": [{"type": "shuffle", "colors": [1, 1]}]}),
         "colors repeats an entry: [1, 1]"),
        (["contract", "--k", "3"],
         json.dumps({"segments": [{"type": "shuffle", "kinds": [{"finite": 1}, {"finite": 1}]}]}),
         "kinds repeats an entry: [{'finite': 1}, {'finite': 1}]"),
        (["verify", "--terms", "-1"], "", "series order must be nonnegative, got -1"),
        (["verify", "--cap", "-3"], "", "cap must be nonnegative, got -3"),
        (["count", "--sequence", "L", "--k", "0", "--method", "brute-force", "--cap", "-1"], "",
         "cap must be nonnegative, got -1"),
        (["enumerate", "--k", "0", "--cap", "-2"], "", "cap must be nonnegative, got -2"),
        (["count", "--sequence", "L", "--k", "3", "--method", "recurrence", "--cap", "-1"], "",
         "cap must be nonnegative, got -1"),
        (["count", "--sequence", "L", "--k", "3", "--method", "egf", "--cap", "-1"], "",
         "cap must be nonnegative, got -1"),
        (["expand"], "", "invalid JSON on stdin: Expecting value: line 1 column 1 (char 0)"),
        (["contract", "--k", "3", "--input", "truncated.json"], '{"segments": [{"type": "block"',
         "invalid JSON in truncated.json: Expecting ',' delimiter: line 1 column 31 (char 30)"),
        (["expand"], _LONG_NUMBER_MODEL, f"invalid JSON on stdin: {_LONG_NUMBER_ERROR}"),
        (["expand", "--input", "long.json"], _LONG_NUMBER_MODEL,
         f"invalid JSON in long.json: {_LONG_NUMBER_ERROR}"),
        (["expand"], json.dumps({"k": 2, "points": []}),
         "malformed model JSON: missing key 'adjacency_constrained'"),
        (["contract", "--k", "1"], "{}", "malformed description JSON: missing key 'segments'"),
        (["contract", "--k", "1", "--unconstrained"], "{}",
         "malformed colored description JSON: missing key 'segments'"),
    ],
    ids=["deep-nesting", "contract-negative-k", "contract-colored-negative-k", "expand-negative-k",
         "repeated-color", "repeated-shuffle-color", "repeated-kind", "verify-negative-terms",
         "verify-negative-cap", "count-negative-cap", "enumerate-negative-cap", "count-recurrence-negative-cap",
         "count-egf-negative-cap", "empty-stdin", "truncated-file", "long-number-stdin", "long-number-file",
         "model-missing-key", "description-missing-key", "colored-missing-key"],
)
def test_malformed_inputs_are_usage_errors(tmp_path, monkeypatch, argv, text, message):
    if "--input" in argv:  # the row's text is the named file's, and stdin stays empty
        monkeypatch.chdir(tmp_path)
        (tmp_path / argv[argv.index("--input") + 1]).write_text(text)
        text = ""
    code, out, err = run_on_stdin(argv, text)
    assert code == 2
    assert out == ""
    assert err and "Traceback" not in err
    assert message in err


def test_input_that_is_not_utf8_names_its_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "expand", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"invalid JSON in {path}: 'utf-8' codec can't decode byte 0xff in position 0")
    assert "Traceback" not in err


_WIRE_KEYS = ["k", "adjacency_constrained", "points", "type", "color", "colors", "segments", "kind", "kinds",
              "finite"]
_json_leaves = st.none() | st.booleans() | st.integers(-3, 6) | st.floats() | st.sampled_from(
    ["R", "S", "block", "shuffle", "omega", "omega_star", "zeta", ""]
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_WIRE_KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=24,
)
# documents shaped like the three wire formats, with a number that may be of any JSON type
_num = st.integers(-1, 5) | _json_leaves
_nums = st.lists(_num, max_size=3) | _json_values


def _tagged(tag, field, value):
    return st.fixed_dictionaries({"type": st.just(tag), field: value})


_kind = st.fixed_dictionaries({"finite": _num}) | st.sampled_from(["omega", "omega_star", "zeta"])
_wire_documents = st.one_of(
    _json_values,
    st.fixed_dictionaries({
        "k": _num,
        "adjacency_constrained": st.booleans(),
        "points": st.lists(_tagged("R", "color", _num) | _tagged("S", "colors", _nums), max_size=4),
    }),
    st.fixed_dictionaries({"segments": st.lists(
        _tagged("block", "kind", _kind) | _tagged("shuffle", "kinds", st.lists(_kind, max_size=3)), max_size=4
    )}),
    st.fixed_dictionaries({"segments": st.lists(
        _tagged("block", "color", _num) | _tagged("shuffle", "colors", _nums), max_size=4
    )}),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    doc=_wire_documents,
    argv=st.sampled_from([["expand"], ["contract", "--k"], ["contract", "--unconstrained", "--k"]]),
    k=st.integers(-2, 6),
)
def test_random_json_input_exits_cleanly(doc, argv, k):
    argv = argv + [str(k)] if argv[0] == "contract" else argv
    code, _, err = run_on_stdin(argv, json.dumps(doc))
    assert code in (0, 2)
    assert "Traceback" not in err
