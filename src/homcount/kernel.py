"""The brute-force counting walk: one recursion node per model, no memo.

Every brute-force count in the package comes from root_split, which walks the
full tree of models over a color bitmask and counts its nodes. Nothing is
memoized on purpose: these counts are the independent oracle for the
recurrence formulas, so every model must actually be visited.
"""

from __future__ import annotations

BACKEND = "python"  # the only backend; the benchmark records it with each run

_MAX_K = 16  # walks beyond k≈10 are infeasible; refuse before starting one


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError(f"color count must be nonnegative, got {k}")
    if k > _MAX_K:
        raise ValueError(f"brute-force walk not supported beyond k={_MAX_K}, got {k}")


def root_split(k: int, constrained: bool, surjective: bool, r_points: bool = True) -> tuple[int, int]:
    """(S-first, R-first) counts of the models over colors 1..k.

    A model is a sequence of points, each an R-point (one color) or an S-point
    (a nonempty color set), using no color twice; `constrained` forbids two
    R-points in a row and `r_points=False` forbids R-points altogether. With
    `surjective`, only models using all k colors count. The empty model lands
    in the S-first slot.
    """
    _check_k(k)
    after_r = r_points and not constrained
    inner = 0 if surjective else 1  # what a model with colors left counts

    def walk(avail: int, r_ok: bool) -> int:
        """This model plus every extension of it, given its free colors."""
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
    s_first = walk(full, False)  # the root with only its S-point extensions
    r_first = sum(walk(full ^ (1 << c), after_r) for c in range(k)) if r_points else 0
    return s_first, r_first


def count_models(k: int, constrained: bool) -> int:
    """Number of models over colors 1..k."""
    return sum(root_split(k, constrained, False))


def count_surjective(k: int, constrained: bool) -> int:
    """Number of models using all k colors."""
    return sum(root_split(k, constrained, True))


def count_ordered_set_partitions(k: int) -> int:
    """Sequences of disjoint nonempty color sets covering 1..k (S-points only)."""
    return sum(root_split(k, False, True, r_points=False))
