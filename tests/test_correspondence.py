"""Round trips, classifier cases, and the finite homogeneity oracle."""

import hashlib
import itertools
import json
import math
import re
from collections import defaultdict

import pytest

from homcount.correspondence import (
    InvalidStructureError,
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
    FiniteColoredOrdering,
    MulticoloredModel,
    OMEGA,
    OrderingDescription,
    RPoint,
    SPoint,
    ZETA,
    colored_description_from_dict,
    colored_description_to_dict,
    description_from_dict,
    description_to_dict,
    validate_colored_description,
    validate_description,
)


def test_expand_examples():
    assert expand_model(MulticoloredModel(1, [])) == OrderingDescription([])
    assert expand_model(MulticoloredModel(2, [RPoint(2)])) == OrderingDescription(
        [RPoint(2)]
    )
    assert expand_model(
        MulticoloredModel(3, [SPoint({1, 3}), RPoint(2)])
    ) == OrderingDescription([SPoint([1, 3]), RPoint(2)])


def test_expand_rejects_invalid_model():
    with pytest.raises(InvalidStructureError, match="Tprime.3b"):
        expand_model(MulticoloredModel(2, [RPoint(1), RPoint(2)], True))
    with pytest.raises(ValueError, match="adjacency-constrained"):
        expand_model(MulticoloredModel(2, [RPoint(1)], False))


@pytest.mark.parametrize("constrained", [0, 1, None, "false"])
def test_expansions_refuse_a_flag_that_is_no_bool(constrained):
    # each branches on the flag, so a flag read for its truth value would pick a theory
    message = f"^adjacency_constrained must be true or false, got {re.escape(repr(constrained))}$"
    for expand in (expand_model, expand_colored):
        with pytest.raises(ValueError, match=message):
            expand(MulticoloredModel(1, [RPoint(1)], constrained))


def test_contract_examples():
    assert contract_description(
        OrderingDescription([RPoint(2)]), 2
    ) == MulticoloredModel(2, [RPoint(2)], True)
    assert contract_description(
        OrderingDescription([SPoint([1])]), 1
    ) == MulticoloredModel(1, [SPoint({1})], True)
    with pytest.raises(ValueError, match="finite-label range"):
        contract_description(OrderingDescription([RPoint(OMEGA)]), 3)
    with pytest.raises(ValueError, match="finite-label range"):
        contract_description(OrderingDescription([RPoint(5)]), 3)
    with pytest.raises(InvalidStructureError, match="T.disjoint"):
        contract_description(
            OrderingDescription([SPoint([1]), RPoint(1)]), 2
        )
    for d in [(RPoint(True),), (RPoint(2), RPoint(True)), (RPoint("x"), RPoint("x")), (SPoint([2.5]),)]:
        with pytest.raises(InvalidStructureError) as refused:  # a label that is no block kind
            contract_description(d, 3)
        assert "T.kind" in refused.value.report.axioms()


def test_expand_colored_examples():
    assert expand_colored(
        MulticoloredModel(2, [RPoint(1), RPoint(2)], False)
    ) == ColoredDescription([RPoint(1), RPoint(2)])
    assert expand_colored(
        MulticoloredModel(2, [SPoint({1, 2})], False)
    ) == ColoredDescription([SPoint({1, 2})])
    assert contract_colored(ColoredDescription([]), 0) == MulticoloredModel(0, [], False)
    for label in (True, OMEGA, "x", 2.0):  # no color: refused by validation, neither coerced nor a TypeError
        message = f"invalid colored description: T.color: label {label!r} at 0 is not a color"
        with pytest.raises(InvalidStructureError, match=f"^{re.escape(message)}$"):
            contract_colored(ColoredDescription([RPoint(label)]), 2)
    with pytest.raises(ValueError, match="adjacency-unconstrained"):
        expand_colored(MulticoloredModel(1, [RPoint(1)], True))


def test_expand_colored_keeps_the_model_points():
    # expand_model too: a description is the constrained model's own points over block kinds
    for constrained, expand in [(True, expand_model), (False, expand_colored)]:
        for k in range(5):
            for m in enumerate_models(k, constrained):
                assert expand(m) == m.points


def test_contract_names_the_first_label_in_canonical_order():
    kinds = OrderingDescription([SPoint([ZETA, OMEGA, 5])])
    with pytest.raises(ValueError, match=r"finite-label range: kind \{'finite': 5\} with k=3$"):
        contract_description(kinds, 3)
    colors = ColoredDescription([RPoint(1), SPoint({2, -1, 7})])
    with pytest.raises(ValueError, match="^color -1 outside 1..1$"):
        contract_colored(colors, 1)


# sha256 of the description_to_dict / colored_description_to_dict JSON lines of
# the expansions of every model at k = 0..5, recorded before colored
# descriptions shared the model's point classes
GOLDEN_EXPANSIONS = {
    True: (6132, "a900832daac44168ac74001acaf4879f84afd8ba5ce92a8e4aa0a6efe9196168"),
    False: (10658, "58403dd694c8964df90e68bdba8c367d7f9a5d7109d31ad1bfa7bd5c266ffdb6"),
}


@pytest.mark.parametrize("constrained", sorted(GOLDEN_EXPANSIONS))
def test_expansion_bytes_match_golden(constrained):
    if constrained:
        expand, to_dict, from_dict = expand_model, description_to_dict, description_from_dict
    else:
        expand, to_dict, from_dict = expand_colored, colored_description_to_dict, colored_description_from_dict
    digest, count = hashlib.sha256(), 0
    for k in range(6):
        for m in enumerate_models(k, constrained):
            line = json.dumps(to_dict(expand(m)))
            assert from_dict(json.loads(line)) == expand(m)
            digest.update((line + "\n").encode())
            count += 1
    assert (count, digest.hexdigest()) == GOLDEN_EXPANSIONS[constrained]


@pytest.mark.parametrize("k", range(6))
def test_round_trip_constrained(k):
    for m in enumerate_models(k, True):
        d = expand_model(m)
        assert validate_description(d).ok
        assert contract_description(d, k) == m


@pytest.mark.parametrize("k", range(6))
def test_round_trip_unconstrained(k):
    for m in enumerate_models(k, False):
        d = expand_colored(m)
        assert validate_colored_description(d).ok
        assert contract_colored(d, k) == m


def test_expanded_descriptions_are_disjoint_blocks_and_shuffles():
    # purely singleton blocks and shuffles over pairwise disjoint kind sets
    for m in enumerate_models(4, True):
        d = expand_model(m)
        seen = set()
        for seg in d:
            kinds = {seg.color} if isinstance(seg, RPoint) else set(seg.colors)
            assert kinds, "empty segment"
            assert not (kinds & seen)
            seen |= kinds


def test_classify_cnm_examples():
    d = OrderingDescription([SPoint([1, 3])])
    assert classify_cnm(d, 1, 1) is True  # max size 3 == 1+1+1
    d4 = OrderingDescription([RPoint(4)])
    assert classify_cnm(d4, 1, 1) is False
    omega = OrderingDescription([RPoint(OMEGA)])
    assert classify_cnm(omega, math.inf, 2) is False


def test_classify_cnm_infinite_kind_cases():
    from homcount.model import OMEGA_STAR, ZETA

    omega = OrderingDescription([RPoint(OMEGA)])
    omega_star = OrderingDescription([RPoint(OMEGA_STAR)])
    zeta = OrderingDescription([RPoint(ZETA)])
    big = OrderingDescription([RPoint(1000)])
    # omega needs an infinite predecessor budget, omega* an infinite successor one
    assert classify_cnm(omega, 2, math.inf)
    assert not classify_cnm(omega, 2, 3)
    assert classify_cnm(omega_star, math.inf, 3)
    assert not classify_cnm(omega_star, 2, math.inf)
    # zeta survives iff either side is infinite
    assert classify_cnm(zeta, math.inf, 0) and classify_cnm(zeta, 0, math.inf)
    assert not classify_cnm(zeta, 5, 5)
    # finite blocks of any size survive once one budget is infinite
    assert classify_cnm(big, math.inf, 0) and classify_cnm(big, 0, math.inf)
    # everything survives with both budgets infinite
    both = OrderingDescription(
        [RPoint(OMEGA), RPoint(ZETA), SPoint([OMEGA_STAR, 7])]
    )
    assert classify_cnm(both, math.inf, math.inf)


def test_classify_cnm_argument_validation():
    d = OrderingDescription([])
    with pytest.raises(ValueError):
        classify_cnm(d, -1, 2)
    with pytest.raises(ValueError):
        classify_cnm(d, 1.5, 2)
    for n, m in ((True, 0), (0, False)):  # a bool is refused, not read as 1 or 0
        with pytest.raises(ValueError, match="must be a nonnegative integer or math.inf, got (True|False)$"):
            classify_cnm(d, n, m)
    for labels in [(RPoint(True),), (RPoint(2), RPoint(True)), (RPoint("x"), RPoint("x")), (SPoint([2.5]),)]:
        with pytest.raises(InvalidStructureError) as refused:  # a label that is no block kind
            classify_cnm(labels, 1, 1)
        assert "T.kind" in refused.value.report.axioms()


@pytest.mark.parametrize("k", range(1, 6))
def test_classification_consistency_with_enumeration(k):
    for m in enumerate_models(k, True):
        d = expand_model(m)
        for n in range(k):
            assert classify_cnm(d, n, k - 1 - n)  # n + m' + 1 = k covers every model
        if k in m.used_colors() and k >= 2:
            # a block of the maximal size k dies under any budget pair summing lower
            assert any(
                not classify_cnm(d, n, k - 2 - n) for n in range(k - 1)
            )


def test_is_finite_homogeneous_examples():
    assert is_finite_homogeneous(FiniteColoredOrdering([]))
    assert is_finite_homogeneous(FiniteColoredOrdering([1, 2, 3]))
    assert not is_finite_homogeneous(FiniteColoredOrdering([1, 2, 1]))


def test_is_finite_homogeneous_cap():
    with pytest.raises(ValueError, match="^is_finite_homogeneous searches at most 8 points, got 9$"):
        is_finite_homogeneous(FiniteColoredOrdering([1] * 9))


def test_homogeneity_reduction():
    # the gap rule agrees with "all colors distinct" on every ordering of length <= 8 (the cap) over
    # colors {1,2,3}, and on 8-point orderings whose colors are all distinct
    for length in range(9):
        for colors in itertools.product([1, 2, 3], repeat=length):
            o = FiniteColoredOrdering(colors)
            expected = len(set(colors)) == len(colors)
            assert is_finite_homogeneous(o) == expected, colors
    for colors in [range(1, 9), range(8, 0, -1), (5, 2, 8, 1, 7, 3, 6, 4), (10, 20, 30, 40, 50, 60, 70, 80)]:
        assert is_finite_homogeneous(FiniteColoredOrdering(colors)), colors


def permutation_filter_automorphisms(o):
    """Reference: filter all size! permutations for increasing, color-preserving maps."""
    size = len(o)
    return [
        perm
        for perm in itertools.permutations(range(size))
        if all(perm[i] < perm[i + 1] for i in range(size - 1))
        and all(o[perm[i]] == o[i] for i in range(size))
    ]


def homogeneous_by_definition(o):
    """Every map between two subsequences of one color sequence extends to an automorphism."""
    autos = permutation_filter_automorphisms(o)
    by_colors = defaultdict(list)
    for length in range(len(o) + 1):
        for s in itertools.combinations(range(len(o)), length):
            by_colors[tuple(o[i] for i in s)].append(s)
    return all(
        any(all(sigma[a] == b for a, b in zip(s, t)) for sigma in autos)
        for group in by_colors.values()
        for s, t in itertools.product(group, repeat=2)
    )


def test_gap_rule_matches_the_definition():
    for length in range(7):
        for colors in itertools.product([1, 2, 3], repeat=length):
            o = FiniteColoredOrdering(colors)
            assert is_finite_homogeneous(o) == homogeneous_by_definition(o), colors
