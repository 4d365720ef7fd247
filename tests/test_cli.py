"""End-to-end CLI behavior: outputs, exit codes, file formats, failure paths."""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homcount import correspondence, counting, kernel, verify
from homcount.cli import ROUTES, main
from homcount.counting import SequenceId
from homcount.enumeration import BruteForceCapError
from homcount.model import ColoredDescription, ColorShuffle, OrderingDescription, Shuffle

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
        return next(iter(ROUTES[seq][1].values()))(k, None)

    assert default(SequenceId.I, 5) == 5487
    assert default(SequenceId.L, 6) == 131244
    assert default(SequenceId.K1, 2) == 5
    assert default(SequenceId.FUBINI, 4) == 75
    assert default(SequenceId.I_CLOSED_NONEMPTY, 2) == 11


def test_every_brute_force_route_applies_the_cap():
    for seq, (_, routes) in ROUTES.items():
        with pytest.raises(BruteForceCapError, match="cap of 3"):
            routes["brute-force"](4, 3)


def test_golden_commands_reproduce_their_bytes(monkeypatch):
    # the command pool recorded for the benchmark's cli-session workload, replayed in process
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("HOMCOUNT_CAP", raising=False)
    commands = json.loads(GOLDEN_CLI.read_text())["commands"]
    assert len(commands) == 162
    mismatched = [
        entry["argv"]
        for entry in commands
        if run_on_stdin(entry["argv"], entry["stdin"])[:2] != (entry["exit"], entry["stdout"])
    ]
    assert mismatched == []


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


@pytest.mark.parametrize("value", ["abc", "-3"])
@pytest.mark.parametrize(
    "argv", [["count", "--sequence", "I", "--k", "3", "--method", "brute-force"], ["verify", "--k-max", "2"]]
)
def test_malformed_cap_env_is_named(capsys, monkeypatch, argv, value):
    monkeypatch.setenv("HOMCOUNT_CAP", value)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"HOMCOUNT_CAP must be a nonnegative integer, got {value!r}\n"


def test_count_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("HOMCOUNT_CAP", "2")
    code, _, err = run(capsys, "count", "--sequence", "I", "--k", "3", "--method", "brute-force")
    assert code == 2
    assert "cap of 2" in err


def test_unknown_sequence_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--sequence", "Q", "--k", "3"])
    assert exc.value.code == 2


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
    def broken(k, **kwargs):
        raise RuntimeError("walk broke")

    monkeypatch.setattr(kernel, "count_ordered_set_partitions", broken)
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


def test_round_trip_check_fails_on_an_invalid_expansion(monkeypatch):
    invalid = {
        "expand_model": lambda m: OrderingDescription([Shuffle([])]),
        "expand_colored": lambda m: ColoredDescription([ColorShuffle([])]),
    }
    for name, expand in invalid.items():
        with monkeypatch.context() as patch:
            patch.setattr(correspondence, name, expand)
            results = {r.name: r for r in verify.run_checks(k_max=2)}
        assert not results["round-trip bijection"].ok, name


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


def _model(**fields):
    points = [{"type": "S", "colors": [1, 2]}, {"type": "R", "color": 3}]
    return {"k": 3, "adjacency_constrained": True, "points": points, **fields}


# the wrongly typed inputs of the ROADMAP's strict-wire-format table, one per row
@pytest.mark.parametrize(
    "argv,doc",
    [
        (["expand"], _model(k="3")),
        (["expand"], _model(points=[{"type": "S", "colors": "12"}])),
        (["expand"], _model(adjacency_constrained="yes")),
        (["expand"], _model(points=[{"type": "R", "color": 1.0}])),
        (["expand"], _model(points=[{"type": "R", "color": True}])),
        (["contract", "--k", "3"], {"segments": [{"type": "block", "kind": {"finite": True}}]}),
    ],
    ids=["k-str", "colors-str", "flag-str", "color-float", "color-bool", "finite-bool"],
)
def test_wrongly_typed_fields_are_usage_errors(tmp_path, capsys, argv, doc):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, "--input", str(src))
    assert code == 2
    assert out == ""
    assert err and "Traceback" not in err


# input defects that once ended in a traceback (deep nesting) or were silently
# accepted (negative k, entries merged by a set), one per row
@pytest.mark.parametrize(
    "argv,text",
    [
        (["expand"], "[" * 100000 + "]" * 100000),
        (["contract", "--k", "-5"], json.dumps({"segments": []})),
        (["contract", "--k", "-5", "--unconstrained"], json.dumps({"segments": []})),
        (["expand"], json.dumps(_model(k=-3, points=[]))),
        (["expand"], json.dumps(_model(points=[{"type": "S", "colors": [1, 1]}]))),
        (["contract", "--k", "3", "--unconstrained"],
         json.dumps({"segments": [{"type": "shuffle", "colors": [1, 1]}]})),
        (["contract", "--k", "3"],
         json.dumps({"segments": [{"type": "shuffle", "kinds": [{"finite": 1}, {"finite": 1}]}]})),
        (["verify", "--terms", "-1"], ""),
        (["verify", "--cap", "-3"], ""),
    ],
    ids=["deep-nesting", "contract-negative-k", "contract-colored-negative-k", "expand-negative-k",
         "repeated-color", "repeated-shuffle-color", "repeated-kind", "verify-negative-terms",
         "verify-negative-cap"],
)
def test_malformed_inputs_are_usage_errors(argv, text):
    code, out, err = run_on_stdin(argv, text)
    assert code == 2
    assert out == ""
    assert err and "Traceback" not in err


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
