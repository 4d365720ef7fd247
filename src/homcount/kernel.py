"""The brute-force counting walk: every model counted, none remembered.

Every brute-force count in the package comes from root_split, which walks the
full tree of models over a color bitmask. A model's children are read from a
per-mask move table (`_moves`), built the first time its free-color mask is
reached and shared by every walk. The move rule itself is `_children`, which
enumeration's model streams read too. Small subtrees are counted in their
parent instead of being visited, by the number of free colors a child leaves:

  0  the child is a model without extensions: 1;
  1  (color c) the child unless surjective, S{c}, and R(c) when an R-point may
     come next;
  2  (colors c, d) the child unless surjective, S{c,d}, the one-color subtrees
     of S{c} and S{d}, and those of R(c) and R(d) when an R-point may come next;
  3  (colors c, d, e) the child unless surjective, S{c,d,e}, the one-color
     subtrees of its three two-color S-moves, the two-color subtrees of its
     three one-color S-moves, and those of R(c), R(d) and R(e) when an R-point
     may come next.

Every model with four or more free colors is one recursion call, and the fold
stops there on purpose. Up to three it is a fixed list of cases, checked by
hand, that shares no table with the recurrences. Folding by the number of free
colors at every depth would be a memo keyed on that number, the binomial
convolution of the recurrences restated; and a fold at four would leave the
oracle hardly a walk at all (163 calls for count_models(7, True), k = 7 being
the cap that verify walks to). At three, count_models(8, True) makes 26,072
calls where a fold at two made 210,928, count_models(7, True) 1,668 and
count_models(7, False) 2,340. No count is memoized: these counts are the
independent oracle for the recurrence formulas, so no model's count is taken
from another model's.

The move tables hold one folded tuple per mask, whose deep entries are the
children with four or more free colors, fewer than 3^k entries in all: at the
bound MAX_K = 12 that is about 13.7 MB (tracemalloc over all 4,096 masks),
and a walk at k=12 could not finish anyway (I(10) is already about 4.9e9
models).

Two bounds guard the brute-force layer. check_k refuses k outside 0..MAX_K,
where no move table could be built; check_cap refuses k beyond the brute-force
cap (an explicit cap, else HOMCOUNT_CAP, else DEFAULT_CAP = 7), which every
capped entry point applies before it walks. Both live here, so the CLI's
brute-force routes load no other layer; a k and a cap that are no int >= 0
are refused by combinatorics.nonnegative, the package's one rule for them,
and the CLI loads combinatorics anyway, through counting.
"""

from __future__ import annotations

import os
from functools import cache

from homcount.combinatorics import boolean, nonnegative

BACKEND = "python"  # the only backend; the benchmark records it with each run

MAX_K = 12  # the walks and the model streams refuse larger k before building any table


def check_k(k: int) -> None:
    """Refuse a k that is no int in 0..MAX_K with a ValueError."""
    if nonnegative(k, "color count") > MAX_K:
        raise ValueError(f"brute force not supported beyond k={MAX_K}, got {k}")


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
    """`override`, else HOMCOUNT_CAP, else DEFAULT_CAP; an `override` or a
    HOMCOUNT_CAP that is not a nonnegative integer is refused with a ValueError
    naming it."""
    if override is not None:
        return nonnegative(override, "cap")
    env = os.environ.get("HOMCOUNT_CAP")
    if not env:
        return DEFAULT_CAP
    try:
        cap = int(env)
        if cap >= 0:
            return cap
    except ValueError:
        pass
    raise ValueError(f"HOMCOUNT_CAP must be a nonnegative integer, got {env!r}")


def check_cap(k: int, cap: int | None) -> None:
    """Refuse a brute-force request for k beyond the cap (`cap`, else
    HOMCOUNT_CAP, else DEFAULT_CAP) with BruteForceCapError, after refusing a
    cap, then a k, that is no int >= 0 with a ValueError."""
    limit = brute_force_cap(cap)
    if nonnegative(k, "color count") > limit:
        raise BruteForceCapError(k, limit)


def _fold(rests) -> tuple[int, int, int, int, tuple[int, ...]]:
    """(children with no free color, with one, with two, with three, the other children's masks)."""
    small = [0, 0, 0, 0]
    deep = []
    for rest in rests:
        free = rest.bit_count()
        if free < 4:
            small[free] += 1
        else:
            deep.append(rest)
    return (*small, tuple(deep))


def _children(avail: int) -> tuple[list[int], list[int]]:
    """The move rule of the model: the free colors left after each R-move (one per
    free color, lowest first) and each S-move (one per nonempty submask of `avail`,
    largest first) of a model whose free colors are `avail`."""
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
    return r_rests, s_rests


@cache
def _moves(avail: int) -> tuple:
    """The R-move and S-move children of a model whose free colors are `avail`,
    folded: (r_done, r_one, r_two, r_three, r_deep, s_done, s_one, s_two, s_three, s_deep)."""
    r_rests, s_rests = _children(avail)
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
    after_r = not boolean(constrained, "constrained") and r_points
    if k == 0:
        return 1, 0
    inner = 0 if surjective else 1  # what a model with colors left counts
    one_after_r = inner + 1 + after_r  # the subtree of a one-color child reached by an R-point
    one_after_s = inner + 1 + r_points  # ... and by an S-point
    # a two-color child: itself, S of both colors, S of either, R of either when an R-point may follow
    two_after_r = inner + 1 + 2 * one_after_s + 2 * one_after_r * after_r
    two_after_s = inner + 1 + 2 * one_after_s + 2 * one_after_r * r_points
    # a three-color child: itself, S of all three, S of any two or any one, R of any one when an R-point may follow
    three_after_r = inner + 1 + 3 * one_after_s + 3 * two_after_s + 3 * two_after_r * after_r
    three_after_s = inner + 1 + 3 * one_after_s + 3 * two_after_s + 3 * two_after_r * r_points

    def walk(avail: int, r_ok: bool) -> int:
        """This model plus every extension of it, given its free colors `avail`:
        nonempty, and four or more whenever `r_ok` is set."""
        _, _, _, r_three, r_deep, s_done, s_one, s_two, s_three, s_deep = _moves(avail)
        total = inner + s_done + s_one * one_after_s + s_two * two_after_s + s_three * three_after_s
        for rest in s_deep:
            total += walk(rest, r_points)
        if r_ok:  # a model walked with r_ok has four or more colors: each R-move leaves three or more
            total += r_three * three_after_r
            for rest in r_deep:
                total += walk(rest, after_r)
        return total

    full = (1 << k) - 1
    s_first = walk(full, False)  # the root with only its S-point extensions
    if not r_points:
        return s_first, 0
    r_done, r_one, r_two, r_three, r_deep = _moves(full)[:5]
    r_first = r_done + r_one * one_after_r + r_two * two_after_r + r_three * three_after_r
    return s_first, r_first + sum(walk(rest, after_r) for rest in r_deep)


def count_models(k: int, constrained: bool) -> int:
    """Number of models over colors 1..k."""
    return sum(root_split(k, constrained, False))


def count_surjective(k: int, constrained: bool) -> int:
    """Number of models using all k colors."""
    return sum(root_split(k, constrained, True))


def count_ordered_set_partitions(k: int) -> int:
    """Sequences of disjoint nonempty color sets covering 1..k (S-points only)."""
    return sum(root_split(k, False, True, r_points=False))
