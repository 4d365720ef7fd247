"""The brute-force counting walk: every model counted, none remembered.

Every brute-force count in the package comes from root_split, which walks the
full tree of models over a color bitmask. A model's children are read from a
per-mask move table (`_moves`), built the first time its free-color mask is
reached and shared by every walk. A child that leaves no free color is a model
without extensions and a child that leaves one free color c has at most three
models in its subtree (itself unless surjective, S{c}, and R(c) when an
R-point may come next), so both are counted in their parent instead of being
visited. Every other model is one recursion call. No count is memoized on
purpose: these counts are the independent oracle for the recurrence formulas,
so no model's count is taken from another model's.

The move tables hold one entry per (mask, child) pair, 3^k in all: at the
bound MAX_K = 12 that is about 19 MB, and a walk at k=12 could not finish
anyway (I(10) is already about 4.9e9 models).
"""

from __future__ import annotations

from functools import cache

BACKEND = "python"  # the only backend; the benchmark records it with each run

MAX_K = 12  # the walks and the model streams refuse larger k before building any table


def check_k(k: int) -> None:
    """Refuse k outside 0..MAX_K with a ValueError."""
    if k < 0:
        raise ValueError(f"color count must be nonnegative, got {k}")
    if k > MAX_K:
        raise ValueError(f"brute force not supported beyond k={MAX_K}, got {k}")


def _fold(rests) -> tuple[int, int, tuple[int, ...]]:
    """(children with no free color, children with one, the other children's masks)."""
    done = one = 0
    deep = []
    for rest in rests:
        if not rest:
            done += 1
        elif not rest & (rest - 1):
            one += 1
        else:
            deep.append(rest)
    return done, one, tuple(deep)


@cache
def _moves(avail: int) -> tuple:
    """The R-move and S-move children of a model whose free colors are `avail`,
    folded: (r_done, r_one, r_deep, s_done, s_one, s_deep)."""
    r_rests = []
    m = avail
    while m:
        low = m & -m
        r_rests.append(avail ^ low)
        m ^= low
    s_rests = []
    sub = avail
    while sub:
        s_rests.append(avail ^ sub)
        sub = (sub - 1) & avail
    return _fold(r_rests) + _fold(s_rests)


def root_split(k: int, constrained: bool, surjective: bool, r_points: bool = True) -> tuple[int, int]:
    """(S-first, R-first) counts of the models over colors 1..k.

    A model is a sequence of points, each an R-point (one color) or an S-point
    (a nonempty color set), using no color twice; `constrained` forbids two
    R-points in a row and `r_points=False` forbids R-points altogether. With
    `surjective`, only models using all k colors count. The empty model lands
    in the S-first slot.
    """
    check_k(k)
    if k == 0:
        return 1, 0
    after_r = r_points and not constrained
    inner = 0 if surjective else 1  # what a model with colors left counts
    one_after_r = inner + 1 + after_r  # the subtree of a one-color child reached by an R-point
    one_after_s = inner + 1 + r_points  # ... and by an S-point

    def walk(avail: int, r_ok: bool) -> int:
        """This model plus every extension of it, given its free colors `avail`:
        nonempty, and two or more whenever `r_ok` is set."""
        _, r_one, r_deep, s_done, s_one, s_deep = _moves(avail)
        total = inner + s_done + s_one * one_after_s
        for rest in s_deep:
            total += walk(rest, r_points)
        if r_ok:  # only deep children get here: no R-move leaves them without colors
            total += r_one * one_after_r
            for rest in r_deep:
                total += walk(rest, after_r)
        return total

    full = (1 << k) - 1
    s_first = walk(full, False)  # the root with only its S-point extensions
    if not r_points:
        return s_first, 0
    r_done, r_one, r_deep = _moves(full)[:3]
    return s_first, r_done + r_one * one_after_r + sum(walk(rest, after_r) for rest in r_deep)


def count_models(k: int, constrained: bool) -> int:
    """Number of models over colors 1..k."""
    return sum(root_split(k, constrained, False))


def count_surjective(k: int, constrained: bool) -> int:
    """Number of models using all k colors."""
    return sum(root_split(k, constrained, True))


def count_ordered_set_partitions(k: int) -> int:
    """Sequences of disjoint nonempty color sets covering 1..k (S-points only)."""
    return sum(root_split(k, False, True, r_points=False))
