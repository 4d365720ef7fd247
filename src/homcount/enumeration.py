"""Brute-force generation of every multicolored model, in canonical order.

The stream is the ground truth that every counting formula is checked against.
Models are produced shortest first, then lexicographically by point encoding
(R-points before S-points, R by color, S by sorted color list), exactly the
order of model.canonical_compare. Generation recurses over the first point.

Counting never materializes models: it goes through homcount.kernel, which
walks the same choice tree, one node per model, and splits the surjective
models into S-first and R-first at its root. Streams are lazy and keep O(k)
state.
"""

from __future__ import annotations

import os
from typing import Iterator

from homcount import kernel
from homcount.model import MulticoloredModel, Point, RPoint, SPoint

DEFAULT_CAP = 7


class BruteForceCapError(ValueError):
    """Raised when a brute-force request exceeds the configured cap."""

    def __init__(self, k: int, cap: int):
        self.k = k
        self.cap = cap
        super().__init__(
            f"brute force at k={k} exceeds the cap of {cap}; "
            f"raise it with --cap or HOMCOUNT_CAP if you really mean it"
        )


def brute_force_cap(override: int | None = None) -> int:
    if override is not None:
        return override
    env = os.environ.get("HOMCOUNT_CAP")
    return int(env) if env else DEFAULT_CAP


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError(f"color count must be nonnegative, got {k}")


def _check_cap(k: int, cap: int | None) -> None:
    limit = brute_force_cap(cap)
    if k > limit:
        raise BruteForceCapError(k, limit)


def _nonempty_subsets(colors: tuple[int, ...], max_size: int) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets of the sorted tuple `colors`, in lexicographic order."""
    for i in range(len(colors)):
        head = (colors[i],)
        yield head
        if max_size > 1:
            for tail in _nonempty_subsets(colors[i + 1 :], max_size - 1):
                yield head + tail


def enumerate_models(k: int, constrained: bool = True) -> Iterator[MulticoloredModel]:
    """Every valid model over colors 1..k, exactly once, in canonical order."""
    _check_k(k)
    prefix: list[Point] = []

    def extend(avail: tuple[int, ...], remaining: int, last_r: bool) -> Iterator[MulticoloredModel]:
        if remaining == 0:
            yield MulticoloredModel(k, tuple(prefix), constrained)
            return
        budget = len(avail) - (remaining - 1)  # colors this point may consume
        if budget >= 1:
            if not (constrained and last_r):
                for c in avail:
                    prefix.append(RPoint(c))
                    yield from extend(tuple(x for x in avail if x != c), remaining - 1, True)
                    prefix.pop()
            for subset in _nonempty_subsets(avail, budget):
                chosen = set(subset)
                prefix.append(SPoint(chosen))
                yield from extend(
                    tuple(x for x in avail if x not in chosen), remaining - 1, False
                )
                prefix.pop()

    colors = tuple(range(1, k + 1))
    for length in range(k + 1):  # no color reuse forces at most k points
        yield from extend(colors, length, False)


def enumerate_surjective(k: int, constrained: bool = True) -> Iterator[MulticoloredModel]:
    """The sub-stream of enumerate_models whose models use every color in 1..k."""
    full = frozenset(range(1, k + 1))
    return (m for m in enumerate_models(k, constrained) if m.used_colors() == full)


def enumerate_ordered_set_partitions(k: int, cap: int | None = None) -> Iterator[MulticoloredModel]:
    """All-S-point surjective models: the ordered set partitions of {1..k}."""
    _check_k(k)
    _check_cap(k, cap)
    prefix: list[Point] = []

    def extend(avail: tuple[int, ...], remaining: int) -> Iterator[MulticoloredModel]:
        if remaining == 0:
            if not avail:
                yield MulticoloredModel(k, tuple(prefix), False)
            return
        budget = len(avail) - (remaining - 1)
        for subset in _nonempty_subsets(avail, budget):
            chosen = set(subset)
            prefix.append(SPoint(chosen))
            yield from extend(tuple(x for x in avail if x not in chosen), remaining - 1)
            prefix.pop()

    colors = tuple(range(1, k + 1))
    for length in range(k + 1):
        yield from extend(colors, length)


def count_by_enumeration(k: int, constrained: bool = True, cap: int | None = None) -> int:
    """Exact number of models, by walking all of them (kernel-accelerated)."""
    _check_cap(k, cap)
    return kernel.count_models(k, constrained)


def count_surjective_by_enumeration(
    k: int, constrained: bool = True, cap: int | None = None
) -> int:
    """Exact number of models using all k colors, by walking all models."""
    _check_cap(k, cap)
    return kernel.count_surjective(k, constrained)


def count_ordered_set_partitions_by_enumeration(k: int, cap: int | None = None) -> int:
    _check_cap(k, cap)
    return kernel.count_ordered_set_partitions(k)


def surjective_first_point_split(
    k: int, constrained: bool = True, cap: int | None = None
) -> tuple[int, int]:
    """(S-first, R-first) counts over the surjective stream, by walking all models.

    The empty model (k=0) lands in the S-first slot, matching the recurrence
    base K1(0)=1, K2(0)=0.
    """
    _check_cap(k, cap)
    return kernel.root_split(k, constrained, True)
