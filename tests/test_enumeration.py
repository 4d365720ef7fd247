"""Stream correctness: completeness, canonical order, determinism, kernel parity."""

import itertools
from concurrent.futures import ThreadPoolExecutor

import pytest

from homcount import kernel
from homcount.combinatorics import binomial
from homcount.enumeration import (
    BruteForceCapError,
    count_by_enumeration,
    count_ordered_set_partitions_by_enumeration,
    count_surjective_by_enumeration,
    enumerate_models,
    enumerate_ordered_set_partitions,
    enumerate_surjective,
    surjective_first_point_split,
)
from homcount.model import MulticoloredModel, RPoint, SPoint, canonical_key, validate_model


def naive_models(k, constrained):
    """Independent generator: every point sequence of length <= k, filtered."""
    choices = [RPoint(c) for c in range(1, k + 1)]
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(1, k + 1), size):
            choices.append(SPoint(combo))
    found = set()
    for n in range(k + 1):
        for points in itertools.product(choices, repeat=n):
            m = MulticoloredModel(k, points, constrained)
            if validate_model(m).ok:
                found.add(m)
    return found


@pytest.mark.parametrize("constrained", [True, False])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_stream_completeness_against_naive_filter(k, constrained):
    streamed = list(enumerate_models(k, constrained))
    assert len(streamed) == len(set(streamed)), "stream repeated a model"
    assert set(streamed) == naive_models(k, constrained)


def test_stream_is_canonically_sorted():
    for k in range(5):
        for constrained in (True, False):
            keys = [canonical_key(m) for m in enumerate_models(k, constrained)]
            assert keys == sorted(keys)


def test_every_streamed_model_validates():
    for m in enumerate_models(4, True):
        assert validate_model(m).ok
    for m in enumerate_models(4, False):
        assert validate_model(m).ok


def test_k1_examples():
    assert list(enumerate_models(0, True)) == [MulticoloredModel(0, [], True)]
    models = list(enumerate_models(1, True))
    assert models == [
        MulticoloredModel(1, [], True),
        MulticoloredModel(1, [RPoint(1)], True),
        MulticoloredModel(1, [SPoint({1})], True),
    ]
    assert len(list(enumerate_models(1, False))) == 3


def test_determinism_across_threads():
    reference = list(enumerate_models(4, True))
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda _: list(enumerate_models(4, True)), range(2)))
    assert runs[0] == reference and runs[1] == reference


def test_counts_match_reference_values():
    assert count_by_enumeration(2, True) == 12
    assert count_by_enumeration(2, False) == 14
    assert count_by_enumeration(3, True) == 71


def test_count_matches_stream_length():
    for k in range(5):
        for constrained in (True, False):
            assert count_by_enumeration(k, constrained) == sum(
                1 for _ in enumerate_models(k, constrained)
            )


def test_cap_refusal_names_the_cap():
    with pytest.raises(BruteForceCapError, match="cap of 7"):
        count_by_enumeration(8, True)
    # explicit override opens the door
    assert count_by_enumeration(8, True, cap=8) == 14016774


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("HOMCOUNT_CAP", "3")
    with pytest.raises(BruteForceCapError, match="cap of 3"):
        count_by_enumeration(4, True)


def test_surjective_examples():
    surj1 = list(enumerate_surjective(1, True))
    assert surj1 == [
        MulticoloredModel(1, [RPoint(1)], True),
        MulticoloredModel(1, [SPoint({1})], True),
    ]
    assert list(enumerate_surjective(0, True)) == [MulticoloredModel(0, [], True)]
    assert sum(1 for _ in enumerate_surjective(2, False)) == 9


def test_surjective_stream_matches_kernel_count():
    for k in range(5):
        for constrained in (True, False):
            assert count_surjective_by_enumeration(k, constrained) == sum(
                1 for _ in enumerate_surjective(k, constrained)
            )


def test_partition_by_used_color_set():
    # models partition by which colors they use; each class is a surjective count
    for k in range(6):
        for constrained in (True, False):
            total = count_by_enumeration(k, constrained)
            assert total == sum(
                binomial(k, i) * count_surjective_by_enumeration(i, constrained)
                for i in range(k + 1)
            )


def test_first_point_split():
    assert surjective_first_point_split(0, True) == (1, 0)
    assert surjective_first_point_split(2, True) == (5, 2)
    # reference: classify the materialised surjective stream by its first point
    for k in range(6):
        for constrained in (True, False):
            split = [0, 0]
            for m in enumerate_surjective(k, constrained):
                r_first = bool(m.points) and isinstance(m.points[0], RPoint)
                split[r_first] += 1
            assert kernel.root_split(k, constrained, True) == tuple(split)
            assert surjective_first_point_split(k, constrained) == tuple(split)


def test_ordered_set_partition_examples():
    assert list(enumerate_ordered_set_partitions(0)) == [MulticoloredModel(0, [], False)]
    two = [
        tuple(tuple(sorted(p.colors)) for p in m.points)
        for m in enumerate_ordered_set_partitions(2)
    ]
    assert two == [((1, 2),), ((1,), (2,)), ((2,), (1,))]
    assert sum(1 for _ in enumerate_ordered_set_partitions(3)) == 13


def test_ordered_set_partitions_are_all_s_and_surjective():
    for m in enumerate_ordered_set_partitions(4):
        assert all(isinstance(p, SPoint) for p in m.points)
        assert m.used_colors() == frozenset(range(1, 5))
        assert validate_model(m).ok


def test_ordered_set_partition_count_matches_stream():
    for k in range(6):
        assert count_ordered_set_partitions_by_enumeration(k) == sum(
            1 for _ in enumerate_ordered_set_partitions(k)
        )


def test_kernel_guard():
    with pytest.raises(ValueError):
        kernel.count_models(17, True)
    with pytest.raises(ValueError):
        kernel.count_models(-1, True)


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        list(enumerate_models(-1, True))
    with pytest.raises(ValueError):
        list(enumerate_ordered_set_partitions(-1))
