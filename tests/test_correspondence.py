"""Round trips, classifier cases, and the finite homogeneity oracle."""

import itertools
import math

import pytest

from homcount.correspondence import (
    InvalidStructureError,
    _automorphisms,
    classify_cnm,
    contract_colored,
    contract_description,
    expand_colored,
    expand_model,
    is_finite_homogeneous,
)
from homcount.enumeration import BruteForceCapError, enumerate_models
from homcount.model import (
    ColoredDescription,
    ColorPoint,
    ColorShuffle,
    Finite,
    FiniteColoredOrdering,
    MulticoloredModel,
    OMEGA,
    OrderingDescription,
    RPoint,
    SPoint,
    Shuffle,
    SingletonBlock,
    validate_colored_description,
    validate_description,
)


def test_expand_examples():
    assert expand_model(MulticoloredModel(1, [])) == OrderingDescription([])
    assert expand_model(MulticoloredModel(2, [RPoint(2)])) == OrderingDescription(
        [SingletonBlock(Finite(2))]
    )
    assert expand_model(
        MulticoloredModel(3, [SPoint({1, 3}), RPoint(2)])
    ) == OrderingDescription([Shuffle([Finite(1), Finite(3)]), SingletonBlock(Finite(2))])


def test_expand_rejects_invalid_model():
    with pytest.raises(InvalidStructureError, match="Tprime.3b"):
        expand_model(MulticoloredModel(2, [RPoint(1), RPoint(2)], True))
    with pytest.raises(ValueError, match="adjacency-constrained"):
        expand_model(MulticoloredModel(2, [RPoint(1)], False))


def test_contract_examples():
    assert contract_description(
        OrderingDescription([SingletonBlock(Finite(2))]), 2
    ) == MulticoloredModel(2, [RPoint(2)], True)
    assert contract_description(
        OrderingDescription([Shuffle([Finite(1)])]), 1
    ) == MulticoloredModel(1, [SPoint({1})], True)
    with pytest.raises(ValueError, match="finite-label range"):
        contract_description(OrderingDescription([SingletonBlock(OMEGA)]), 3)
    with pytest.raises(ValueError, match="finite-label range"):
        contract_description(OrderingDescription([SingletonBlock(Finite(5))]), 3)
    with pytest.raises(InvalidStructureError, match="T.disjoint"):
        contract_description(
            OrderingDescription([Shuffle([Finite(1)]), SingletonBlock(Finite(1))]), 2
        )


def test_expand_colored_examples():
    assert expand_colored(
        MulticoloredModel(2, [RPoint(1), RPoint(2)], False)
    ) == ColoredDescription([ColorPoint(1), ColorPoint(2)])
    assert expand_colored(
        MulticoloredModel(2, [SPoint({1, 2})], False)
    ) == ColoredDescription([ColorShuffle({1, 2})])
    assert contract_colored(ColoredDescription([]), 0) == MulticoloredModel(0, [], False)
    with pytest.raises(ValueError, match="adjacency-unconstrained"):
        expand_colored(MulticoloredModel(1, [RPoint(1)], True))


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
        for seg in d.segments:
            kinds = {seg.kind} if isinstance(seg, SingletonBlock) else set(seg.kinds)
            assert kinds, "empty segment"
            assert not (kinds & seen)
            seen |= kinds


def test_classify_cnm_examples():
    d = OrderingDescription([Shuffle([Finite(1), Finite(3)])])
    assert classify_cnm(d, 1, 1) is True  # max size 3 == 1+1+1
    d4 = OrderingDescription([SingletonBlock(Finite(4))])
    assert classify_cnm(d4, 1, 1) is False
    omega = OrderingDescription([SingletonBlock(OMEGA)])
    assert classify_cnm(omega, math.inf, 2) is False


def test_classify_cnm_infinite_kind_cases():
    from homcount.model import OMEGA_STAR, ZETA

    omega = OrderingDescription([SingletonBlock(OMEGA)])
    omega_star = OrderingDescription([SingletonBlock(OMEGA_STAR)])
    zeta = OrderingDescription([SingletonBlock(ZETA)])
    big = OrderingDescription([SingletonBlock(Finite(1000))])
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
        [SingletonBlock(OMEGA), SingletonBlock(ZETA), Shuffle([OMEGA_STAR, Finite(7)])]
    )
    assert classify_cnm(both, math.inf, math.inf)


def test_classify_cnm_argument_validation():
    d = OrderingDescription([])
    with pytest.raises(ValueError):
        classify_cnm(d, -1, 2)
    with pytest.raises(ValueError):
        classify_cnm(d, 1.5, 2)


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
    with pytest.raises(BruteForceCapError):
        is_finite_homogeneous(FiniteColoredOrdering([1] * 9))


def test_homogeneity_reduction():
    # brute force agrees with "all colors distinct" on every ordering of
    # length <= 6 over colors {1,2,3}
    for length in range(7):
        for colors in itertools.product([1, 2, 3], repeat=length):
            o = FiniteColoredOrdering(colors)
            expected = len(set(colors)) == len(colors)
            assert is_finite_homogeneous(o) == expected, colors


def permutation_filter_automorphisms(o):
    """Reference: filter all size! permutations for increasing, color-preserving maps."""
    size = len(o.colors)
    return [
        perm
        for perm in itertools.permutations(range(size))
        if all(perm[i] < perm[i + 1] for i in range(size - 1))
        and all(o.colors[perm[i]] == o.colors[i] for i in range(size))
    ]


def test_automorphism_search_matches_permutation_filter():
    for length in range(7):
        for colors in itertools.product([1, 2, 3], repeat=length):
            o = FiniteColoredOrdering(colors)
            assert _automorphisms(o) == permutation_filter_automorphisms(o), colors
