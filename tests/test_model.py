"""Validator, canonical-order, and JSON contract tests for the domain types."""

import itertools
import json

import pytest

from homcount.model import (
    ColoredDescription,
    ColorPoint,
    ColorShuffle,
    Finite,
    MulticoloredModel,
    OMEGA,
    OMEGA_STAR,
    OrderingDescription,
    RPoint,
    SPoint,
    Shuffle,
    SingletonBlock,
    ZETA,
    canonical_compare,
    colored_description_from_dict,
    colored_description_to_dict,
    description_from_dict,
    description_to_dict,
    model_from_dict,
    model_to_dict,
    validate_colored_description,
    validate_description,
    validate_model,
)


def all_point_choices(k):
    yield from (RPoint(c) for c in range(1, k + 1))
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(1, k + 1), size):
            yield SPoint(combo)


def naive_model_check(m):
    """Direct restatement of the model axioms, shared with no validator code."""
    used = []
    for p in m.points:
        colors = [p.color] if isinstance(p, RPoint) else sorted(p.colors)
        if not colors:
            return False
        if any(not (1 <= c <= m.k) for c in colors):
            return False
        used.extend(colors)
    if len(used) != len(set(used)):
        return False
    if m.adjacency_constrained:
        for a, b in zip(m.points, m.points[1:]):
            if isinstance(a, RPoint) and isinstance(b, RPoint):
                return False
    return True


def all_point_sequences(k, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(all_point_choices(k), repeat=n)


def test_validate_model_examples():
    assert validate_model(MulticoloredModel(1, [], True)).ok
    bad = validate_model(MulticoloredModel(2, [RPoint(1), RPoint(2)], True))
    assert not bad.ok
    assert bad.violations[0].axiom == "Tprime.3b"
    assert bad.violations[0].positions == (0, 1)
    assert validate_model(MulticoloredModel(2, [RPoint(1), RPoint(2)], False)).ok


def test_validate_model_axiom_ids():
    assert validate_model(MulticoloredModel(2, [RPoint(1), RPoint(1)], False)).axioms() == {
        "Tprime.5"
    }
    assert validate_model(MulticoloredModel(2, [SPoint({1}), SPoint({1, 2})], False)).axioms() == {
        "Tprime.6"
    }
    assert validate_model(MulticoloredModel(2, [RPoint(1), SPoint({1})], False)).axioms() == {
        "Tprime.7"
    }
    assert validate_model(MulticoloredModel(2, [SPoint(())], False)).axioms() == {"Tprime.2"}
    assert validate_model(MulticoloredModel(2, [RPoint(3)], False)).axioms() == {"Tprime.range"}


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_validator_matches_naive_axiom_checker(k, constrained):
    for points in all_point_sequences(k, 3):
        m = MulticoloredModel(k, points, constrained)
        assert validate_model(m).ok == naive_model_check(m), m


def test_validate_description_examples():
    bad = validate_description(
        OrderingDescription([SingletonBlock(Finite(1)), SingletonBlock(Finite(2))])
    )
    assert bad.axioms() == {"T.4"}
    bad = validate_description(
        OrderingDescription([SingletonBlock(OMEGA_STAR), SingletonBlock(OMEGA)])
    )
    assert bad.axioms() == {"T.7"}
    ok = validate_description(
        OrderingDescription([Shuffle([Finite(1), Finite(3)]), SingletonBlock(Finite(2))])
    )
    assert ok.ok


def test_validate_description_adjacency_table():
    cases = [
        (SingletonBlock(Finite(2)), SingletonBlock(OMEGA), "T.5"),
        (SingletonBlock(OMEGA_STAR), SingletonBlock(Finite(2)), "T.6"),
    ]
    for left, right, axiom in cases:
        assert validate_description(OrderingDescription([left, right])).axioms() == {axiom}
    # the sum argument allows these: the left block has no greatest element or
    # the right block has no least element
    for left, right in [
        (SingletonBlock(OMEGA), SingletonBlock(Finite(2))),
        (SingletonBlock(Finite(2)), SingletonBlock(OMEGA_STAR)),
        (SingletonBlock(OMEGA_STAR), SingletonBlock(ZETA)),
        (SingletonBlock(ZETA), SingletonBlock(OMEGA)),
        (SingletonBlock(ZETA), SingletonBlock(Finite(2))),
        (SingletonBlock(Finite(2)), SingletonBlock(ZETA)),
    ]:
        assert validate_description(OrderingDescription([left, right])).ok, (left, right)


def test_validate_description_disjointness():
    bad = validate_description(
        OrderingDescription([Shuffle([Finite(1)]), SingletonBlock(Finite(1))])
    )
    assert bad.axioms() == {"T.disjoint"}
    assert validate_description(OrderingDescription([Shuffle([])])).axioms() == {
        "T.shuffle_empty"
    }
    assert validate_description(OrderingDescription([SingletonBlock(Finite(0))])).axioms() == {
        "T.finite_size"
    }


def test_validate_colored_description():
    assert validate_colored_description(
        ColoredDescription([ColorPoint(1), ColorPoint(2)])
    ).ok
    bad = validate_colored_description(
        ColoredDescription([ColorPoint(1), ColorShuffle({1, 2})])
    )
    assert bad.axioms() == {"T.disjoint"}


def test_canonical_compare_examples():
    empty = MulticoloredModel(1, [])
    r1 = MulticoloredModel(1, [RPoint(1)])
    s1 = MulticoloredModel(1, [SPoint({1})])
    assert canonical_compare(empty, r1) == -1
    assert canonical_compare(r1, s1) == -1
    assert canonical_compare(s1, MulticoloredModel(1, [SPoint({1})])) == 0
    with pytest.raises(ValueError):
        canonical_compare(empty, MulticoloredModel(2, []))


def test_canonical_compare_is_total_order():
    from homcount.enumeration import enumerate_models

    for k in range(4):
        models = list(enumerate_models(k, True))
        for a, b in itertools.product(models[:40], repeat=2):
            cab, cba = canonical_compare(a, b), canonical_compare(b, a)
            assert cab == -cba  # antisymmetric
            assert (cab == 0) == (a == b)  # total: ties only on equality
        for a, b, c in zip(models, models[1:], models[2:]):
            assert canonical_compare(a, b) == -1 and canonical_compare(b, c) == -1
            assert canonical_compare(a, c) == -1  # transitivity along the stream


def test_model_json_bit_exact():
    m = MulticoloredModel(2, [RPoint(1), SPoint({2})], True)
    blob = json.dumps(model_to_dict(m))
    assert blob == (
        '{"k": 2, "adjacency_constrained": true, '
        '"points": [{"type": "R", "color": 1}, {"type": "S", "colors": [2]}]}'
    )
    assert model_from_dict(json.loads(blob)) == m


def test_description_json_bit_exact():
    d = OrderingDescription(
        [SingletonBlock(Finite(2)), Shuffle([Finite(1), OMEGA])]
    )
    blob = json.dumps(description_to_dict(d))
    assert blob == (
        '{"segments": [{"type": "block", "kind": {"finite": 2}}, '
        '{"type": "shuffle", "kinds": [{"finite": 1}, "omega"]}]}'
    )
    assert description_from_dict(json.loads(blob)) == d


def test_kind_json_encodings():
    d = OrderingDescription(
        [SingletonBlock(OMEGA), SingletonBlock(ZETA), SingletonBlock(OMEGA_STAR)]
    )
    round_tripped = description_from_dict(description_to_dict(d))
    assert round_tripped == d


def test_colored_description_json():
    d = ColoredDescription([ColorPoint(2), ColorShuffle({1, 3})])
    blob = json.dumps(colored_description_to_dict(d))
    assert blob == (
        '{"segments": [{"type": "block", "color": 2}, '
        '{"type": "shuffle", "colors": [1, 3]}]}'
    )
    assert colored_description_from_dict(json.loads(blob)) == d


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        model_from_dict({"k": 1, "points": []})  # missing flag
    with pytest.raises(ValueError):
        model_from_dict({"k": 1, "adjacency_constrained": True, "points": [{"type": "Q"}]})
    with pytest.raises(ValueError):
        description_from_dict({"segments": [{"type": "block", "kind": "sideways"}]})


def test_json_rejects_wrong_types():
    model = {"k": 2, "adjacency_constrained": False, "points": [{"type": "S", "colors": [1, 2]}]}
    assert model_from_dict(model) == MulticoloredModel(2, [SPoint({1, 2})], False)
    for key, value in [("k", "2"), ("k", True), ("k", 2.0), ("adjacency_constrained", 1), ("points", {})]:
        with pytest.raises(ValueError):
            model_from_dict({**model, key: value})
    for point in [{"type": "R", "color": False}, {"type": "S", "colors": [1, 2.0]}, {"type": "S", "colors": {"1": 1}}]:
        with pytest.raises(ValueError):
            model_from_dict({**model, "points": [point]})
    for segment in [{"type": "block", "color": "1"}, {"type": "shuffle", "colors": "12"},
                    {"type": "shuffle", "colors": [True]}]:
        with pytest.raises(ValueError):
            colored_description_from_dict({"segments": [segment]})
    for segment in [{"type": "block", "kind": {"finite": 1.0}}, {"type": "shuffle", "kinds": "omega"}]:
        with pytest.raises(ValueError):
            description_from_dict({"segments": [segment]})
    with pytest.raises(ValueError):
        description_from_dict({"segments": "none"})
