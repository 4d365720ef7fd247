"""Brute-force generation of every multicolored model, in canonical order.

The stream is the ground truth that every counting formula is checked against.
Models are produced shortest first, then lexicographically by point encoding
(R-points before S-points, R by color, S by its color tuple, which an SPoint
stores in ascending order), exactly the order of model.canonical_key. One generator, _stream, serves all three
public streams; it recurses over the next point and reads that point's
candidates from a per-mask move table (_point_moves) of (point, rest, size)
triples in canonical order, sorted by model.point_key. The moves come from
kernel._children, the one statement of the move rule that the counting walk
reads too. Each RPoint and SPoint is built once per color or color mask and
shared by every table and every model (points are immutable named tuples). The
same points are the streamed models' descriptions too: a description is a
tuple of points over block kinds, and the finite kind of size i is color i.

Each finished model is built with tuple.__new__ from fields that are already
normalized, which skips MulticoloredModel's constructor. A surjective stream
reads no move table for its last point: only a point that takes every free
color can close the model, so it emits the R-point of the one free color (when
exactly one is free and an R-point may come) and then the S-point of them all.

Counting never materializes models: it goes through homcount.kernel, which
walks the same choice tree and splits the surjective models into S-first and
R-first at its root. surjective_first_point_split and
enumerate_ordered_set_partitions are the library's capped entry points: each
applies kernel.check_cap first. The cap (DEFAULT_CAP, BruteForceCapError,
brute_force_cap, check_cap) lives in kernel and is imported from there.

Streams are lazy: besides the current chain of at most k generator frames they
hold only the move tables, 3^k entries for k colors, which is why they refuse
k beyond kernel.MAX_K = 12.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from homcount import kernel
from homcount.kernel import check_cap
from homcount.model import MulticoloredModel, RPoint, SPoint, point_key


@cache
def _r_point(bit: int) -> RPoint:
    return RPoint(bit.bit_length())


@cache
def _s_point(mask: int) -> SPoint:
    return SPoint(c + 1 for c in range(mask.bit_length()) if mask >> c & 1)


@cache
def _point_moves(avail: int) -> tuple[tuple, tuple]:
    """(R-moves, S-moves) of a model whose free colors are `avail`, each a tuple
    of (point, rest, size) in canonical order. The moves are kernel._children's;
    points are shared between tables."""
    r_rests, s_rests = kernel._children(avail)
    r_moves = tuple([(_r_point(avail ^ rest), rest, 1) for rest in r_rests])
    s_moves = [(_s_point(avail ^ rest), rest, (avail ^ rest).bit_count()) for rest in s_rests]
    s_moves.sort(key=lambda move: point_key(move[0]))
    return r_moves, tuple(s_moves)


def _stream(k: int, constrained: bool, surjective: bool, r_points: bool) -> Iterator[MulticoloredModel]:
    """Every model over colors 1..k, in canonical order, under root_split's flags:
    `constrained` forbids two R-points in a row, `r_points=False` forbids
    R-points, `surjective` keeps only the models that use every color."""
    kernel.check_k(k)
    after_r = r_points and not constrained
    new = tuple.__new__

    def extend(prefix: tuple, avail: int, remaining: int, r_ok: bool) -> Iterator[MulticoloredModel]:
        """The models that extend `prefix` by exactly `remaining` >= 1 points."""
        # prefix + (point,) is already a tuple, so MulticoloredModel.__new__ would have nothing to normalize
        if remaining == 1 and surjective:  # only a point that takes every free color closes the model
            if r_ok and not avail & (avail - 1):
                yield new(MulticoloredModel, (k, prefix + (_r_point(avail),), constrained))
            yield new(MulticoloredModel, (k, prefix + (_s_point(avail),), constrained))
            return
        r_moves, s_moves = _point_moves(avail)
        budget = avail.bit_count() - remaining + 1  # colors this point may consume
        for moves, r_next in ((r_moves if r_ok else (), after_r), (s_moves, r_points)):
            if remaining == 1:
                for point, _, _ in moves:
                    yield new(MulticoloredModel, (k, prefix + (point,), constrained))
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


def surjective_first_point_split(
    k: int, constrained: bool = True, cap: int | None = None
) -> tuple[int, int]:
    """(S-first, R-first) counts over the surjective stream, by walking all models.

    The empty model (k=0) lands in the S-first slot, matching the recurrence
    base K1(0)=1, K2(0)=0.
    """
    check_cap(k, cap)
    return kernel.root_split(k, constrained, True)
