"""Validator, canonical-order, and JSON contract tests for the domain types."""

import itertools
import json
import re
import tracemalloc

import pytest

from homcount import correspondence, model
from homcount.correspondence import (
    classify_cnm,
    contract_colored,
    contract_description,
    expand_colored,
    expand_model,
    is_finite_homogeneous,
)
from homcount.enumeration import enumerate_models
from homcount.model import (
    ColoredDescription,
    MulticoloredModel,
    OMEGA,
    OMEGA_STAR,
    OrderingDescription,
    RPoint,
    SPoint,
    ZETA,
    canonical_key,
    kind_key,
    colored_description_from_dict,
    colored_description_to_dict,
    description_from_dict,
    description_to_dict,
    kind_to_json,
    model_from_dict,
    model_to_dict,
    validate_colored_description,
    validate_description,
    validate_model,
)


def all_point_choices(k):
    """Every point over the colors 0..k+1: one below and one above the range, and the empty S-set."""
    colors = range(k + 2)
    yield from (RPoint(c) for c in colors)
    for size in range(len(colors) + 1):
        for combo in itertools.combinations(colors, size):
            yield SPoint(combo)


def naive_model_check(m):
    """The set of model axioms `m` breaks, restated directly; shared with no validator code.
    A reused color breaks Tprime.5 (R after R), Tprime.6 (S after S) or Tprime.7
    (mixed), each reuse classed against the color's first holder."""
    broken, first_tag = set(), {}
    for p in m.points:
        if isinstance(p, RPoint):
            tagged = [(p.color, "R")]
        else:
            if not p.colors:
                broken.add("Tprime.2")
            tagged = [(c, "S") for c in p.colors]
        for color, tag in tagged:
            if not 1 <= color <= m.k:
                broken.add("Tprime.range")
            if color in first_tag:
                broken.add({"RR": "Tprime.5", "SS": "Tprime.6"}.get(first_tag[color] + tag, "Tprime.7"))
            else:
                first_tag[color] = tag
    if m.adjacency_constrained and any(
        isinstance(a, RPoint) and isinstance(b, RPoint) for a, b in zip(m.points, m.points[1:])
    ):
        broken.add("Tprime.3b")
    return broken


def naive_colored_check(points):
    """The axioms a colored description breaks: an empty shuffle, or a color in two points."""
    broken = set()
    if any(isinstance(p, SPoint) and not p.colors for p in points):
        broken.add("T.shuffle_empty")
    held = [{p.color} if isinstance(p, RPoint) else set(p.colors) for p in points]
    if any(a & b for a, b in itertools.combinations(held, 2)):
        broken.add("T.disjoint")
    return broken


def all_point_sequences(k, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(all_point_choices(k), repeat=n)


# Two adjacent singleton blocks glue into one when the left has a greatest element
# (finite, omega*) and the right a least one (finite, omega); the axiom says which.
_GLUED = {(True, True): "T.4", (True, False): "T.5", (False, True): "T.6", (False, False): "T.7"}


def naive_description_check(segments):
    """The axioms a description breaks, restated from the block-sum argument."""
    broken = set()
    held = [{s.color} if isinstance(s, RPoint) else set(s.colors) for s in segments]
    if any(isinstance(s, SPoint) and not s.colors for s in segments):
        broken.add("T.shuffle_empty")
    if any(type(kind) is int and kind < 1 for kinds in held for kind in kinds):
        broken.add("T.finite_size")
    if any(a & b for a, b in itertools.combinations(held, 2)):
        broken.add("T.disjoint")
    for left, right in zip(segments, segments[1:]):
        if isinstance(left, RPoint) and isinstance(right, RPoint):
            left_finite, right_finite = type(left.color) is int, type(right.color) is int
            if (left_finite or left.color == OMEGA_STAR) and (right_finite or right.color == OMEGA):
                broken.add(_GLUED[left_finite, right_finite])
    return broken


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
    # a bool or a block kind is no color: reported, neither coerced nor raised
    assert validate_model(MulticoloredModel(2, [RPoint(True)], False)).axioms() == {"Tprime.range"}
    assert validate_model(MulticoloredModel(2, [RPoint(OMEGA)], False)).axioms() == {"Tprime.range"}


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_validator_matches_naive_axiom_checker(k, constrained):
    for points in all_point_sequences(k, 3):
        m = MulticoloredModel(k, points, constrained)
        assert validate_model(m).axioms() == naive_model_check(m), m
        if not constrained:  # the same points as the colored description of m
            d = ColoredDescription(points)
            assert validate_colored_description(d).axioms() == naive_colored_check(points), d


def test_description_validator_matches_naive_axiom_checker():
    kinds = [0, 1, 2, OMEGA, OMEGA_STAR, ZETA]
    segments = [RPoint(kind) for kind in kinds] + [
        SPoint(combo) for size in range(len(kinds) + 1) for combo in itertools.combinations(kinds, size)
    ]
    for n in range(3):
        for segs in itertools.product(segments, repeat=n):
            d = OrderingDescription(segs)
            assert validate_description(d).axioms() == naive_description_check(segs), d


def outcome(call, *args):
    """What call(*args) gives: its value, or the type and the text of what it raised."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def decided_and_walked(cases):
    """The (call, args) cases whose outcome differs from the diagnosis walk's. Each case runs once with every
    decision refused, as every input ran before the decision pass, and again as the package runs it where a
    decision it asked for admits its input; where none admits, the package walks as well."""
    decide, asked = model._decide, []

    def refuse(*args):
        asked.append(args)
        return False

    walked = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_decide", refuse)
        patch.setattr(correspondence, "_decide", refuse)
        for call, args in cases:
            asked.clear()
            walked.append((outcome(call, *args), any(decide(*request) for request in asked)))
    return [(call.__name__, args, was, outcome(call, *args)) for (call, args), (was, admitted) in zip(cases, walked)
            if admitted and outcome(call, *args) != was]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_decision_and_walk_give_equal_reports(k):
    # the point sequences of test_validator_matches_naive_axiom_checker: full reports (axioms, positions and
    # messages) and contractions agree, whichever path an input takes
    cases = []
    for points in all_point_sequences(k, 3):
        cases += [(validate_model, (MulticoloredModel(k, points, True),)),
                  (validate_model, (MulticoloredModel(k, points, False),)),
                  (validate_colored_description, (points,)), (contract_colored, (points, k))]
    assert decided_and_walked(cases) == []


def test_description_decision_and_walk_give_equal_reports():
    # the segment sequences of test_description_validator_matches_naive_axiom_checker
    kinds = [0, 1, 2, OMEGA, OMEGA_STAR, ZETA]
    segments = [RPoint(kind) for kind in kinds] + [
        SPoint(combo) for size in range(len(kinds) + 1) for combo in itertools.combinations(kinds, size)
    ]
    cases = [(call, (segs, *extra)) for n in range(3) for segs in itertools.product(segments, repeat=n)
             for call, extra in [(validate_description, ()), (contract_description, (2,))]]
    assert decided_and_walked(cases) == []


# labels and shapes that the naive oracles skip: a bool beside its int, a float, an infinite kind as a color, an
# unhashable label, a plain tuple as a point and a list of points
ODD_POINTS = [
    (RPoint(1), SPoint([True, 2])), (RPoint(True), RPoint(1)), (SPoint([1]), RPoint(True)),
    (RPoint(1.0),), (SPoint([1.0, 2]),), (RPoint(1), SPoint([1.0])),
    (RPoint(OMEGA),), (SPoint([1, OMEGA]),), (RPoint(2), RPoint(OMEGA)),
    (RPoint([1]),), (RPoint(1), RPoint([1])), (SPoint([1]), RPoint([1])),
    ((1,),), (RPoint(1), (2,)), (SPoint([1]), (1, 2)),
    [RPoint(1), SPoint([2])], [RPoint(1), RPoint(2)], [RPoint(1), RPoint(1)], [SPoint([1]), SPoint([])],
]


@pytest.mark.parametrize("points", ODD_POINTS)
def test_decision_and_walk_agree_on_labels_the_oracles_skip(points):
    cases = [(validate_description, (points,)), (validate_colored_description, (points,)),
             (contract_description, (points, 3)), (contract_colored, (points, 3)), (classify_cnm, (points, 1, 1))]
    for constrained in (True, False):
        m = tuple.__new__(MulticoloredModel, (3, points, constrained))  # keeps a list of points a list
        cases += [(validate_model, (m,)), (expand_model if constrained else expand_colored, (m,))]
    assert decided_and_walked(cases) == []


# valid points, points that validation refuses, and valid points with a label out of range; colored orderings that
# are homogeneous, that are not, and one past the cap
READ_ONCE_CASES = [
    (contract_description, [RPoint(1), SPoint([2])], (3,)),
    (contract_description, [RPoint(1), RPoint(2)], (3,)),
    (contract_description, [SPoint([1, OMEGA])], (3,)),
    (contract_description, [RPoint(5)], (3,)),
    (contract_colored, [RPoint(1), SPoint([2])], (3,)),
    (contract_colored, [SPoint([1]), RPoint(1)], (3,)),
    (contract_colored, [RPoint(2), SPoint([0, 3])], (3,)),
    (classify_cnm, [RPoint(5)], (1, 1)),
    (classify_cnm, [SPoint([1, 3])], (1, 1)),
    (classify_cnm, [SPoint([])], (1, 1)),
    (is_finite_homogeneous, [], ()),
    (is_finite_homogeneous, [1, 2, 3], ()),
    (is_finite_homogeneous, [2, 1, 2, 1], ()),
    (is_finite_homogeneous, [1] * 9, ()),
]


def assert_read_once(call, points, *args):
    """A one-shot iterator and a list give what the tuple gives, value or exception."""
    want = outcome(call, tuple(points), *args)
    assert outcome(call, list(points), *args) == want
    assert outcome(call, iter(points), *args) == want


@pytest.mark.parametrize("call, points, args", READ_ONCE_CASES)
def test_points_are_read_once(call, points, args):
    assert_read_once(call, points, *args)


def held(call, constrained):
    """call on a model of k=3 that holds the points as it is given them: tuple.__new__ keeps a list or a one-shot
    iterator as it is."""
    return lambda points: call(tuple.__new__(MulticoloredModel, (3, points, constrained)))


# every entry that reads points from a description or from a model's field, in either theory
POINT_READERS = [validate_description, validate_colored_description, held(validate_model, True),
                 held(validate_model, False), held(expand_model, True), held(expand_colored, False)]


@pytest.mark.parametrize("points", [
    [RPoint(1), SPoint([2])], [SPoint([1, 3]), RPoint(2)], [RPoint(1), RPoint(2)], [SPoint([]), RPoint(1)],
    [RPoint(1), SPoint([1])], [RPoint(5)], [SPoint([1, OMEGA])], [RPoint(OMEGA_STAR), RPoint(OMEGA)], [],
])
def test_validators_and_expansions_read_points_once(points):
    # valid points, points that validation refuses, and labels out of range, through every reader
    for call in POINT_READERS:
        assert_read_once(call, points)


def test_an_expansion_returns_the_tuple_it_read():
    for call, constrained, points in [(expand_model, True, [RPoint(1), SPoint([2, 3])]),
                                      (expand_colored, False, [RPoint(1), RPoint(2)])]:
        for form in (list, iter):
            got = held(call, constrained)(form(points))
            assert type(got) is tuple and got == tuple(points)


def test_walk_diagnoses_what_the_decision_refuses():
    # the refused inputs reach the walk, which reports or raises as it always did
    assert outcome(validate_model, MulticoloredModel(3, [RPoint([1])], False)) == (TypeError, "unhashable type: 'list'")
    assert outcome(validate_colored_description, ((1,),)) == (
        AttributeError, "'tuple' object has no attribute 'colors'"
    )
    assert validate_model(MulticoloredModel(3, [RPoint(1), SPoint([True, 2])], False)).violations == (
        ("Tprime.7", (0, 1), "color True reused at 0 and 1"),
    )
    assert validate_description([RPoint(1), RPoint(1)]).axioms() == {"T.4", "T.disjoint"}
    # a one-shot iterator is read once, into the tuple that is decided and then diagnosed
    assert validate_colored_description(iter([SPoint([]), RPoint(1)])).axioms() == {"T.shuffle_empty"}
    assert validate_model(tuple.__new__(MulticoloredModel, (0, iter([RPoint(1)]), False))).axioms() == {"Tprime.range"}
    assert contract_colored([RPoint(1), SPoint([2])], 2) == MulticoloredModel(2, [RPoint(1), SPoint([2])], False)


def test_diagnosis_reports_labels_at_their_first_position_and_every_adjacent_pair():
    # each format's label rule names a reused label where it first appears, after the reuse itself
    assert validate_model(MulticoloredModel(2, [RPoint(5), SPoint([5])], True)).violations == (
        ("Tprime.7", (0, 1), "color 5 reused at 0 and 1"), ("Tprime.range", (0,), "color 5 at 0 outside 1..2"),
    )
    assert validate_description([RPoint(0), SPoint([0, 1])]).violations == (
        ("T.disjoint", (0, 1), "kind {'finite': 0} reused at 0 and 1"),
        ("T.finite_size", (0,), "finite kind of size 0 at 0"),
    )
    assert validate_colored_description([SPoint([True]), RPoint(True)]).violations == (
        ("T.disjoint", (0, 1), "color True reused at 0 and 1"), ("T.color", (0,), "label True at 0 is not a color"),
    )
    # and each pair rule reaches the last two points
    assert validate_description([SPoint([1]), RPoint(OMEGA_STAR), RPoint(2)]).violations == (
        ("T.6", (1, 2), "omega-star before finite at 1,2"),
    )
    assert validate_model(MulticoloredModel(3, [SPoint([1]), RPoint(2), RPoint(3)], True)).violations == (
        ("Tprime.3b", (1, 2), "consecutive R-points at 1,2"),
    )


def test_valid_inputs_are_decided_without_the_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("a valid input was walked")

    monkeypatch.setattr(model, "_diagnose", walk)
    for k in range(5):
        for m in enumerate_models(k, True):
            assert validate_model(m) == validate_description(m.points) == validate_description(iter(m.points)) == ((),)
            assert contract_description(expand_model(m), k) == m
        for m in enumerate_models(k, False):
            assert validate_model(m) == validate_colored_description(iter(m.points)) == ((),)
            assert contract_colored(expand_colored(m), k) == m


def test_validate_description_examples():
    bad = validate_description(
        OrderingDescription([RPoint(1), RPoint(2)])
    )
    assert bad.axioms() == {"T.4"}
    bad = validate_description(
        OrderingDescription([RPoint(OMEGA_STAR), RPoint(OMEGA)])
    )
    assert bad.axioms() == {"T.7"}
    ok = validate_description(
        OrderingDescription([SPoint([1, 3]), RPoint(2)])
    )
    assert ok.ok
    # a label that is no block kind is a violation, named by its repr, not an AttributeError
    for d, axioms in [
        ((RPoint(2), RPoint(True)), {"T.kind"}),
        ((RPoint("x"), RPoint("x")), {"T.disjoint", "T.kind"}),
        ((RPoint(True),), {"T.kind"}),
        ((SPoint([2.5]),), {"T.kind"}),
    ]:
        assert validate_description(d).axioms() == axioms, d
    assert validate_description((RPoint(True),)).violations[0].message == "label True at 0 is not a block kind"


def test_validate_description_adjacency_table():
    cases = [
        (RPoint(2), RPoint(OMEGA), "T.5"),
        (RPoint(OMEGA_STAR), RPoint(2), "T.6"),
    ]
    for left, right, axiom in cases:
        assert validate_description(OrderingDescription([left, right])).axioms() == {axiom}
    # the sum argument allows these: the left block has no greatest element or
    # the right block has no least element
    for left, right in [
        (RPoint(OMEGA), RPoint(2)),
        (RPoint(2), RPoint(OMEGA_STAR)),
        (RPoint(OMEGA_STAR), RPoint(ZETA)),
        (RPoint(ZETA), RPoint(OMEGA)),
        (RPoint(ZETA), RPoint(2)),
        (RPoint(2), RPoint(ZETA)),
    ]:
        assert validate_description(OrderingDescription([left, right])).ok, (left, right)


def test_validate_description_disjointness():
    bad = validate_description(
        OrderingDescription([SPoint([1]), RPoint(1)])
    )
    assert bad.axioms() == {"T.disjoint"}
    assert validate_description(OrderingDescription([SPoint([])])).axioms() == {
        "T.shuffle_empty"
    }
    assert validate_description(OrderingDescription([RPoint(0)])).axioms() == {
        "T.finite_size"
    }


def test_validate_colored_description():
    assert validate_colored_description(
        ColoredDescription([RPoint(1), RPoint(2)])
    ).ok
    bad = validate_colored_description(
        ColoredDescription([RPoint(1), SPoint({1, 2})])
    )
    assert bad.axioms() == {"T.disjoint"}
    # a label that is no color is reported once, at its first position, like T.kind
    for d, axioms in [
        ((RPoint(True),), {"T.color"}),
        ((RPoint(1), SPoint([OMEGA, 2])), {"T.color"}),
        ((RPoint("x"), RPoint("x")), {"T.disjoint", "T.color"}),
        ((SPoint([2.5, 1]),), {"T.color"}),
    ]:
        assert validate_colored_description(d).axioms() == axioms, d
    report = validate_colored_description((RPoint(2), SPoint([OMEGA, 1]), RPoint(OMEGA)))
    assert [v for v in report.violations if v.axiom == "T.color"] == [
        ("T.color", (1,), "label <InfiniteKind.OMEGA: 'omega'> at 1 is not a color")
    ]


def test_kind_key_is_a_total_order():
    # ints and bools by value, then the infinite kinds, then any other label by type name and repr
    assert kind_key(3) == (0, 3) and kind_key(True) == (0, True)
    assert kind_key(OMEGA) == (1, 0) and kind_key(ZETA) == (1, 2)
    assert SPoint([1, "x"]).colors == (1, "x")
    assert SPoint(["b", ZETA, 2.5, "a", -1, OMEGA_STAR]).colors == (-1, OMEGA_STAR, ZETA, 2.5, "a", "b")
    assert validate_description((SPoint([1, "x"]),)).axioms() == {"T.kind"}


def test_colored_points_are_the_model_points():
    assert ColoredDescription([RPoint(1), SPoint({2})]) == (RPoint(1), SPoint({2}))


def test_canonical_key_examples():
    empty = MulticoloredModel(1, [])
    r1 = MulticoloredModel(1, [RPoint(1)])
    s1 = MulticoloredModel(1, [SPoint({1})])
    assert canonical_key(empty) < canonical_key(r1)
    assert canonical_key(r1) < canonical_key(s1)
    assert canonical_key(s1) == canonical_key(MulticoloredModel(1, [SPoint({1})]))
    # an S-point stores its label set once, in canonical order
    assert SPoint([ZETA, 3, OMEGA, 1]).colors == (1, 3, OMEGA, ZETA)
    assert SPoint({2, 1}) == SPoint([1, 2])


def test_points_and_models_are_immutable_value_tuples():
    m = MulticoloredModel(2, [RPoint(1), SPoint({2})], False)
    assert repr(m) == (
        "MulticoloredModel(k=2, points=(RPoint(color=1), SPoint(colors=(2,))), adjacency_constrained=False)"
    )
    assert repr(RPoint(OMEGA)) == "RPoint(color=<InfiniteKind.OMEGA: 'omega'>)"
    assert repr(validate_model(MulticoloredModel(1, [RPoint(1), RPoint(1)], False))) == (
        "ValidationReport(violations=(Violation(axiom='Tprime.5', positions=(0, 1), "
        "message='color 1 reused at 0 and 1'),))"
    )
    same = MulticoloredModel(2, (RPoint(1), SPoint([2, 2])), False)
    assert same == m and hash(same) == hash(m)
    assert m != MulticoloredModel(2, m.points, True)
    assert RPoint(1) != SPoint([1])
    # a value equals the plain tuple of its fields, and has len and iteration
    assert m == (2, (RPoint(1), SPoint({2})), False) and len(m) == 3 and list(RPoint(1)) == [1]
    assert type(MulticoloredModel(1, [RPoint(1)]).points) is tuple
    assert SPoint([3, 1, 3]).colors == SPoint(colors=[3, 1, 3]).colors == (1, 3)
    for value, name in [(m, "k"), (m, "points"), (RPoint(1), "color"), (SPoint([1]), "colors"),
                        (RPoint(1), "extra"), (validate_model(m), "violations")]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def nested_key(m):
    """The canonical key as a nested tuple: (n, ((tag, label tuple), ...))."""
    return (len(m.points), tuple((0, (p.color,)) if type(p) is RPoint else (1, p.colors) for p in m.points))


def test_flat_key_orders_like_the_nested_key():
    # every model at k <= 4 of both theories, pooled: equal ranks among the distinct keys
    # under both keys mean the same pairwise order and the same equalities
    from homcount.enumeration import enumerate_models

    models = [m for k in range(5) for constrained in (True, False) for m in enumerate_models(k, constrained)]

    def ranks(key):
        rank = {value: i for i, value in enumerate(sorted({key(m) for m in models}))}
        return [rank[key(m)] for m in models]

    assert ranks(canonical_key) == ranks(nested_key)
    assert canonical_key(MulticoloredModel(3, [RPoint(1), SPoint({2, 3})])) == (2, 0, 1, 1, (2, 3))


def test_key_items_are_ints_or_the_points_own_colors():
    from homcount.enumeration import enumerate_models

    for m in enumerate_models(4, False):
        key = canonical_key(m)
        assert type(key) is tuple and key[0] == len(m.points) == (len(key) - 1) // 2
        for p, tag, label in zip(m.points, key[1::2], key[2::2]):
            assert type(tag) is int
            if type(p) is RPoint:
                assert (tag, label) == (0, p.color) and type(label) is int
            else:
                assert tag == 1 and label is p.colors


def test_keys_of_the_k6_stream_stay_small():
    # one tuple per model: about 8 MB for the 64,734 keys; a nested pair per point took 29 MB
    from homcount.enumeration import enumerate_models

    models = list(enumerate_models(6, True))
    tracemalloc.start()
    try:
        keys = [canonical_key(m) for m in models]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(keys) == 64734 and size < 12_000_000


def test_canonical_key_is_total_order():
    from homcount.enumeration import enumerate_models

    for k in range(4):
        models = list(enumerate_models(k, True))
        for a, b in itertools.product(models[:40], repeat=2):
            ka, kb = canonical_key(a), canonical_key(b)
            assert not (ka < kb and kb < ka)  # antisymmetric
            assert (ka == kb) == (a == b)  # total: ties only on equality
        for a, b, c in zip(models, models[1:], models[2:]):
            assert canonical_key(a) < canonical_key(b) < canonical_key(c)
            assert canonical_key(a) < canonical_key(c)  # transitivity along the stream


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
        [RPoint(2), SPoint([1, OMEGA])]
    )
    blob = json.dumps(description_to_dict(d))
    assert blob == (
        '{"segments": [{"type": "block", "kind": {"finite": 2}}, '
        '{"type": "shuffle", "kinds": [{"finite": 1}, "omega"]}]}'
    )
    assert description_from_dict(json.loads(blob)) == d


def test_kind_json_encodings():
    d = OrderingDescription(
        [RPoint(OMEGA), RPoint(ZETA), RPoint(OMEGA_STAR)]
    )
    round_tripped = description_from_dict(description_to_dict(d))
    assert round_tripped == d


def test_colored_description_json():
    d = ColoredDescription([RPoint(2), SPoint({1, 3})])
    blob = json.dumps(colored_description_to_dict(d))
    assert blob == (
        '{"segments": [{"type": "block", "color": 2}, '
        '{"type": "shuffle", "colors": [1, 3]}]}'
    )
    assert colored_description_from_dict(json.loads(blob)) == d


def test_writers_refuse_labels_their_readers_refuse():
    # each writer names a bad label as its reader would name it in a document
    with pytest.raises(ValueError, match="^label True is not a block kind$"):
        kind_to_json(True)
    with pytest.raises(ValueError, match="^label True is not a block kind$"):
        description_to_dict((SPoint([True, OMEGA]),))
    with pytest.raises(ValueError, match="^color must be an integer, got True$"):
        model_to_dict(MulticoloredModel(2, [RPoint(True)], False))
    with pytest.raises(ValueError, match=r"^a color in colors must be an integer, got 2\.0$"):
        model_to_dict(MulticoloredModel(2, [SPoint([1, 2.0])], False))
    with pytest.raises(ValueError, match="^color must be an integer, got <InfiniteKind.OMEGA: 'omega'>$"):
        colored_description_to_dict((RPoint(OMEGA),))
    with pytest.raises(ValueError, match="^color must be an integer, got True$"):
        model_from_dict({"k": 2, "adjacency_constrained": False, "points": [{"type": "R", "color": True}]})


@pytest.mark.parametrize("constrained", [1, None, "true"])
def test_model_writer_refuses_the_flag_its_reader_refuses(constrained):
    # the writer names the flag as model_from_dict names it in the document it would have written; a k that
    # is no int >= 0 is a row of tests/test_combinatorics.py::test_every_index_is_an_int_at_least_zero
    message = f"^adjacency_constrained must be true or false, got {re.escape(repr(constrained))}$"
    with pytest.raises(ValueError, match=message):
        model_to_dict(MulticoloredModel(2, [RPoint(1)], constrained))
    with pytest.raises(ValueError, match=message):
        model_from_dict({"k": 2, "adjacency_constrained": constrained, "points": [{"type": "R", "color": 1}]})


def _refused(read, doc, message: str) -> None:
    with pytest.raises(ValueError) as info:
        read(doc)
    assert str(info.value) == message, doc


_MODEL_HEAD = {"k": 1, "adjacency_constrained": False}


def test_json_rejects_malformed():
    # one reader serves the three formats: each refusal names the format's document, key and entry type
    for read, doc, message in [
        (model_from_dict, [], "malformed model JSON: list indices must be integers or slices, not str"),
        (model_from_dict, None, "malformed model JSON: 'NoneType' object is not subscriptable"),
        (model_from_dict, {"adjacency_constrained": False, "points": []}, "malformed model JSON: missing key 'k'"),
        (model_from_dict, {"k": 1, "points": []}, "malformed model JSON: missing key 'adjacency_constrained'"),
        (model_from_dict, _MODEL_HEAD, "malformed model JSON: missing key 'points'"),
        (model_from_dict, {**_MODEL_HEAD, "points": "12"}, "points must be a list, got '12'"),
        (model_from_dict, {**_MODEL_HEAD, "points": [None]},
         "malformed model JSON: 'NoneType' object is not subscriptable"),
        (model_from_dict, {**_MODEL_HEAD, "points": [[]]},
         "malformed model JSON: list indices must be integers or slices, not str"),
        (model_from_dict, {**_MODEL_HEAD, "points": [{}]}, "malformed model JSON: missing key 'type'"),
        (model_from_dict, {**_MODEL_HEAD, "points": [{"type": "Q"}]}, "unknown point type 'Q'"),
        (model_from_dict, {**_MODEL_HEAD, "points": [{"type": "block", "color": 1}]}, "unknown point type 'block'"),
        (model_from_dict, {**_MODEL_HEAD, "points": [{"type": "R"}]}, "malformed model JSON: missing key 'color'"),
        (model_from_dict, {**_MODEL_HEAD, "points": [{"type": "S", "color": 1}]},
         "malformed model JSON: missing key 'colors'"),
        (description_from_dict, [], "malformed description JSON: list indices must be integers or slices, not str"),
        (description_from_dict, None, "malformed description JSON: 'NoneType' object is not subscriptable"),
        (description_from_dict, {}, "malformed description JSON: missing key 'segments'"),
        (description_from_dict, {"segments": "none"}, "segments must be a list, got 'none'"),
        (description_from_dict, {"segments": [None]},
         "malformed description JSON: 'NoneType' object is not subscriptable"),
        (description_from_dict, {"segments": [{}]}, "malformed description JSON: missing key 'type'"),
        (description_from_dict, {"segments": [{"type": "R", "kind": "omega"}]}, "unknown segment type 'R'"),
        (description_from_dict, {"segments": [{"type": "block", "color": 1}]},
         "malformed description JSON: missing key 'kind'"),
        (description_from_dict, {"segments": [{"type": "shuffle", "colors": [1]}]},
         "malformed description JSON: missing key 'kinds'"),
        (description_from_dict, {"segments": [{"type": "block", "kind": "sideways"}]},
         "unknown block kind encoding 'sideways'"),
        (colored_description_from_dict, [],
         "malformed colored description JSON: list indices must be integers or slices, not str"),
        (colored_description_from_dict, None,
         "malformed colored description JSON: 'NoneType' object is not subscriptable"),
        (colored_description_from_dict, {}, "malformed colored description JSON: missing key 'segments'"),
        (colored_description_from_dict, {"segments": {}}, "segments must be a list, got {}"),
        (colored_description_from_dict, {"segments": [None]},
         "malformed colored description JSON: 'NoneType' object is not subscriptable"),
        (colored_description_from_dict, {"segments": [{}]}, "malformed colored description JSON: missing key 'type'"),
        (colored_description_from_dict, {"segments": [{"type": "R", "color": 1}]}, "unknown segment type 'R'"),
        (colored_description_from_dict, {"segments": [{"type": "block", "kind": 1}]},
         "malformed colored description JSON: missing key 'color'"),
        (colored_description_from_dict, {"segments": [{"type": "shuffle"}]},
         "malformed colored description JSON: missing key 'colors'"),
    ]:
        _refused(read, doc, message)
    with pytest.raises(ValueError) as info:  # a shape error keeps the TypeError or KeyError it came from
        description_from_dict({"segments": [None]})
    assert type(info.value.__cause__) is TypeError
    with pytest.raises(ValueError) as info:
        model_from_dict({"k": 1, "points": []})
    assert type(info.value.__cause__) is KeyError


@pytest.mark.parametrize("encoding", [3, 1, "omega_plus", {"finite": 1, "x": 2}], ids=repr)
@pytest.mark.parametrize("field", ["kind", "kinds"])
def test_kind_decoder_refuses_what_encodes_no_kind(field, encoding):
    # a kind is {"finite": size} or an infinite kind's name; a bare int is a color's encoding, not a size
    segment = {"type": "block", "kind": encoding} if field == "kind" else {"type": "shuffle", "kinds": [encoding]}
    with pytest.raises(ValueError, match=f"^unknown block kind encoding {re.escape(repr(encoding))}$"):
        description_from_dict({"segments": [segment]})


def test_json_rejects_wrong_types():
    model = {"k": 2, "adjacency_constrained": False, "points": [{"type": "S", "colors": [1, 2]}]}
    assert model_from_dict(model) == MulticoloredModel(2, [SPoint({1, 2})], False)
    for key, value, message in [("k", "2", "k must be an integer, got '2'"),
                                ("k", True, "k must be an integer, got True"),
                                ("k", 2.0, "k must be an integer, got 2.0"),
                                ("k", -1, "k must be nonnegative, got -1"),
                                ("adjacency_constrained", 1, "adjacency_constrained must be true or false, got 1"),
                                ("points", {}, "points must be a list, got {}")]:
        _refused(model_from_dict, {**model, key: value}, message)
    for point, message in [({"type": "R", "color": False}, "color must be an integer, got False"),
                           ({"type": "S", "colors": [1, 2.0]}, "a color in colors must be an integer, got 2.0"),
                           ({"type": "S", "colors": {"1": 1}}, "colors must be a list, got {'1': 1}"),
                           ({"type": "S", "colors": [1, 1]}, "colors repeats an entry: [1, 1]")]:
        _refused(model_from_dict, {**model, "points": [point]}, message)
    for segment, message in [({"type": "block", "color": "1"}, "color must be an integer, got '1'"),
                             ({"type": "shuffle", "colors": "12"}, "colors must be a list, got '12'"),
                             ({"type": "shuffle", "colors": [True]}, "a color in colors must be an integer, got True"),
                             ({"type": "shuffle", "colors": [2, 2]}, "colors repeats an entry: [2, 2]")]:
        _refused(colored_description_from_dict, {"segments": [segment]}, message)
    for segment, message in [({"type": "block", "kind": {"finite": 1.0}}, "finite size must be an integer, got 1.0"),
                             ({"type": "block", "kind": 3}, "unknown block kind encoding 3"),
                             ({"type": "shuffle", "kinds": "omega"}, "kinds must be a list, got 'omega'"),
                             ({"type": "shuffle", "kinds": [{"finite": True}]},
                              "finite size must be an integer, got True"),
                             ({"type": "shuffle", "kinds": ["zeta", "zeta"]},
                              "kinds repeats an entry: ['zeta', 'zeta']")]:
        _refused(description_from_dict, {"segments": [segment]}, message)
    _refused(description_from_dict, {"segments": "none"}, "segments must be a list, got 'none'")
