"""The brute-force walk: reference counts and the first-point split at its root."""

import itertools
from collections import Counter

import pytest

from homcount import kernel


def reference_split(k, constrained, surjective, r_points=True, visited=None):
    """The walk without move tables or folded subtrees: one call per model, whose free colors are
    appended to `visited` when it is a list."""
    after_r = r_points and not constrained
    inner = 0 if surjective else 1

    def walk(avail, r_ok):
        if visited is not None:
            visited.append(avail)
        if not avail:
            return 1
        total = inner
        if r_ok:
            m = avail
            while m:
                low = m & -m
                total += walk(avail ^ low, after_r)
                m ^= low
        sub = avail
        while sub:
            total += walk(avail ^ sub, r_points)
            sub = (sub - 1) & avail
        return total

    full = (1 << k) - 1
    s_first = walk(full, False)
    r_first = sum(walk(full ^ (1 << c), after_r) for c in range(k)) if r_points else 0
    return s_first, r_first


def test_selected_backend_counts_correctly():
    assert kernel.count_models(3, True) == 71
    assert kernel.count_models(3, False) == 95
    assert kernel.count_surjective(3, False) == 61
    assert kernel.count_ordered_set_partitions(4) == 75


def test_root_split_parts():
    assert kernel.root_split(0, True, False) == (1, 0)
    assert kernel.root_split(1, True, False) == (2, 1)  # empty and S{1}; R1
    assert kernel.root_split(2, True, True) == (5, 2)
    assert kernel.root_split(2, False, True) == (5, 4)
    assert kernel.root_split(4, False, True, r_points=False) == (75, 0)


@pytest.mark.parametrize("constrained,surjective,r_points", itertools.product([True, False], repeat=3))
def test_root_split_matches_call_per_model_walk(constrained, surjective, r_points):
    for k in range(8):
        assert kernel.root_split(k, constrained, surjective, r_points) == reference_split(
            k, constrained, surjective, r_points
        ), k


@pytest.mark.parametrize("constrained,surjective,r_points", itertools.product([True, False], repeat=3))
def test_walk_visits_only_models_with_four_or_more_free_colors(monkeypatch, constrained, surjective, r_points):
    # children with at most three free colors are counted in their parent; below the root, the walk
    # reads one move table per model with four or more, and no other
    asked = []
    moves = kernel._moves
    monkeypatch.setattr(kernel, "_moves", lambda avail: asked.append(avail) or moves(avail))
    for k in range(8):
        full, visited = (1 << k) - 1, []
        asked.clear()
        kernel.root_split(k, constrained, surjective, r_points)
        reference_split(k, constrained, surjective, r_points, visited)
        deep = Counter(avail for avail in visited if avail != full and avail.bit_count() >= 4)
        assert Counter(avail for avail in asked if avail != full) == deep, k
