"""Brute-force generation of every multicolored model, in canonical order.

The stream is the ground truth that every counting formula is checked against.
Models are produced shortest first, then lexicographically by point encoding
(R-points before S-points, R by color, S by sorted color list), exactly the
order of model.canonical_compare. One generator, _stream, serves all three
public streams; it recurses over the next point and reads that point's
candidates from a per-mask move table (_point_moves) of (point, rest, size)
triples in canonical order. Each RPoint and SPoint is built once per color or
color mask and shared by every table and every model (points are frozen).

Counting never materializes models: it goes through homcount.kernel, which
walks the same choice tree and splits the surjective models into S-first and
R-first at its root. check_cap is the brute-force cap every caller applies
first: count_by_enumeration and surjective_first_point_split are the library's
capped entry points to the walk, and each brute-force route of the CLI runs
check_cap and then kernel.root_split.

Streams are lazy: besides the current chain of at most k generator frames they
hold only the move tables, 3^k entries for k colors, which is why they refuse
k beyond kernel.MAX_K = 12.
"""

from __future__ import annotations

import os
from functools import cache
from typing import Iterator

from homcount import kernel
from homcount.model import MulticoloredModel, RPoint, SPoint

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
    """`override`, else HOMCOUNT_CAP, else DEFAULT_CAP; a HOMCOUNT_CAP that is not a
    nonnegative integer is refused with a ValueError naming it."""
    if override is not None:
        return override
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
    HOMCOUNT_CAP, else DEFAULT_CAP) with BruteForceCapError."""
    limit = brute_force_cap(cap)
    if k > limit:
        raise BruteForceCapError(k, limit)


def _lex_subsets(mask: int) -> Iterator[int]:
    """Nonempty submasks of `mask`, in lexicographic order of their sorted colors."""
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        yield low
        for tail in _lex_subsets(rest):
            yield low | tail


@cache
def _r_point(bit: int) -> RPoint:
    return RPoint(bit.bit_length())


@cache
def _s_point(mask: int) -> SPoint:
    return SPoint(c + 1 for c in range(mask.bit_length()) if mask >> c & 1)


@cache
def _point_moves(avail: int) -> tuple[tuple, tuple]:
    """(R-moves, S-moves) of a model whose free colors are `avail`, each a tuple
    of (point, rest, size) in canonical order. Points are shared between tables."""
    r_moves = []
    m = avail
    while m:
        low = m & -m
        m ^= low
        r_moves.append((_r_point(low), avail ^ low, 1))
    s_moves = tuple((_s_point(sub), avail ^ sub, sub.bit_count()) for sub in _lex_subsets(avail))
    return tuple(r_moves), s_moves


def _stream(k: int, constrained: bool, surjective: bool, r_points: bool) -> Iterator[MulticoloredModel]:
    """Every model over colors 1..k, in canonical order, under root_split's flags:
    `constrained` forbids two R-points in a row, `r_points=False` forbids
    R-points, `surjective` keeps only the models that use every color."""
    kernel.check_k(k)
    after_r = r_points and not constrained

    def extend(prefix: tuple, avail: int, remaining: int, r_ok: bool) -> Iterator[MulticoloredModel]:
        """The models that extend `prefix` by exactly `remaining` >= 1 points."""
        r_moves, s_moves = _point_moves(avail)
        budget = avail.bit_count() - remaining + 1  # colors this point may consume
        for moves, r_next in ((r_moves if r_ok else (), after_r), (s_moves, r_points)):
            if remaining == 1:
                for point, rest, _ in moves:
                    if not (surjective and rest):
                        yield MulticoloredModel(k, prefix + (point,), constrained)
            else:
                for point, rest, size in moves:
                    if size <= budget:
                        yield from extend(prefix + (point,), rest, remaining - 1, r_next)

    if not (surjective and k):
        yield MulticoloredModel(k, (), constrained)
    full = (1 << k) - 1
    for length in range(1, k + 1):  # no color reuse forces at most k points
        yield from extend((), full, length, r_points)


def enumerate_models(k: int, constrained: bool = True) -> Iterator[MulticoloredModel]:
    """Every valid model over colors 1..k, exactly once, in canonical order."""
    return _stream(k, constrained, False, True)


def enumerate_surjective(k: int, constrained: bool = True) -> Iterator[MulticoloredModel]:
    """The sub-stream of enumerate_models whose models use every color in 1..k."""
    return _stream(k, constrained, True, True)


def enumerate_ordered_set_partitions(k: int, cap: int | None = None) -> Iterator[MulticoloredModel]:
    """All-S-point surjective models: the ordered set partitions of {1..k}."""
    check_cap(k, cap)
    yield from _stream(k, False, True, False)


def count_by_enumeration(k: int, constrained: bool = True, cap: int | None = None) -> int:
    """Exact number of models, by walking all of them (kernel-accelerated)."""
    check_cap(k, cap)
    return kernel.count_models(k, constrained)


def surjective_first_point_split(
    k: int, constrained: bool = True, cap: int | None = None
) -> tuple[int, int]:
    """(S-first, R-first) counts over the surjective stream, by walking all models.

    The empty model (k=0) lands in the S-first slot, matching the recurrence
    base K1(0)=1, K2(0)=0.
    """
    check_cap(k, cap)
    return kernel.root_split(k, constrained, True)
