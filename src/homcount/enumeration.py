"""Brute-force generation of every multicolored model, in canonical order.

The stream is the ground truth that every counting formula is checked against.
Models are produced shortest first, then lexicographically by point encoding
(R-points before S-points, R by color, S by its color tuple, which an SPoint
stores in ascending order), exactly the order of model.canonical_key. One
generator, _batches, serves all three public streams; it recurses over the
next point and reads that point's candidates from a per-mask move table
(_point_moves) of (point, rest, size) triples in canonical order: R-moves by
color, S-moves sorted by their stored color tuples. The moves come from
kernel._children, the one statement of the move rule that the counting walk
reads too. Each RPoint and SPoint is built once per color or color mask and
shared by every table and every model (points are immutable named tuples).
The same points are the streamed models' descriptions too: a description is a
tuple of points over block kinds, and the finite kind of size i is color i.

Models come out in bulk. The recursion yields batches, lazy iterators of
point tuples, and _stream, the one place where a stream builds a model,
flattens them with itertools.chain.from_iterable and wraps each point tuple
with tuple.__new__ (the fields are already normalized, so MulticoloredModel's
constructor would have nothing to do): no Python frame runs for a model inside
a batch. A prefix with at most BULK_COLORS = 3 free colors is one batch:
_suffixes holds every run of points that completes it, in canonical order, per
free-color mask, points remaining, whether an R-point may come next and the
stream's flags, built once from _point_moves, and the batch maps
prefix.__add__ over that table. The empty model is the table of length 0 over
all k colors: ((),), or () in a surjective stream with colors to use. A prefix
with more free colors and one point to go is a batch of its R-moves and one of
its S-moves. A surjective stream reads no move table for that last point: only
the S-point of every free color can close the model, so it is built directly
instead of being read from a cached _suffixes table of every last point.
The theory flag is a bool, checked by combinatorics.boolean like the walk's.

Counting never materializes models: it goes through homcount.kernel, which
walks the same choice tree and splits the surjective models into S-first and
R-first at its root. surjective_first_point_split and
enumerate_ordered_set_partitions are the library's capped entry points: each
applies kernel.check_cap at the call, before it walks or returns a stream. The
cap (DEFAULT_CAP, BruteForceCapError, brute_force_cap, check_cap) lives in
kernel and is imported from there.

Streams are lazy: besides the current chain of at most k generator frames they
hold only the move tables, 3^k entries for k colors, and the suffix tables,
which is why they refuse k beyond kernel.MAX_K = 12. At that bound the suffix
tables of all five streams (both theories, surjective or not, and the ordered
set partitions) hold 101,598 suffixes in about 8.5 MB (tracemalloc).
"""

from __future__ import annotations

from functools import cache
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Iterator

from homcount import kernel
from homcount.combinatorics import boolean
from homcount.kernel import check_cap
from homcount.model import MulticoloredModel, Point, RPoint, SPoint


BULK_COLORS = 3  # at least 1: a prefix with at most this many free colors is one batch from _suffixes

_point_of = itemgetter(0)  # the point of a (point, rest, size) move


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
    s_moves.sort(key=lambda move: move[0].colors)
    return r_moves, tuple(s_moves)


@cache
def _suffixes(avail: int, remaining: int, r_ok: bool, after_r: bool, r_points: bool,
              surjective: bool) -> tuple[tuple[Point, ...], ...]:
    """Every run of exactly `remaining` points that completes a prefix whose free
    colors are `avail`, in canonical order, under _stream's flags: `r_ok` says
    whether an R-point may come next, `after_r` whether one may follow an
    R-point. Built from _point_moves, so the move rule stays kernel._children's."""
    if not remaining:
        return () if surjective and avail else ((),)
    r_moves, s_moves = _point_moves(avail)
    out: list[tuple[Point, ...]] = []
    for moves, r_next in ((r_moves if r_ok else (), after_r), (s_moves, r_points)):
        for point, rest, _ in moves:
            head = (point,)
            out += [head + tail for tail in _suffixes(rest, remaining - 1, r_next, after_r, r_points, surjective)]
    return tuple(out)


def _stream(k: int, constrained: bool, surjective: bool, r_points: bool) -> Iterator[MulticoloredModel]:
    """Every model over colors 1..k, in canonical order, under root_split's flags:
    `constrained` forbids two R-points in a row, `r_points=False` forbids
    R-points, `surjective` keeps only the models that use every color. The one
    place where a stream builds its models, each by tuple.__new__ from fields
    that are already normalized."""
    after_r = not boolean(constrained, "constrained") and r_points
    points = chain.from_iterable(_batches(k, after_r, surjective, r_points))
    return map(tuple.__new__, repeat(MulticoloredModel), zip(repeat(k), points, repeat(constrained)))


def _batches(k: int, after_r: bool, surjective: bool, r_points: bool) -> Iterator[Iterable[tuple[Point, ...]]]:
    """The point tuples of _stream's models, in canonical order, as a lazy series
    of batches; `after_r` says whether an R-point may follow an R-point."""
    kernel.check_k(k)

    def extend(prefix: tuple, avail: int, remaining: int, r_ok: bool) -> Iterator[Iterable[tuple[Point, ...]]]:
        """The point tuples that extend `prefix` by exactly `remaining` >= 1 points."""
        if avail.bit_count() <= BULK_COLORS:
            yield map(prefix.__add__, _suffixes(avail, remaining, r_ok, after_r, r_points, surjective))
            return
        if remaining == 1 and surjective:  # with more than BULK_COLORS free colors only their S-point closes the model
            yield (prefix + (_s_point(avail),),)
            return
        r_moves, s_moves = _point_moves(avail)
        budget = avail.bit_count() - remaining + 1  # colors this point may consume
        for moves, r_next in ((r_moves if r_ok else (), after_r), (s_moves, r_points)):
            if remaining == 1:
                yield map(prefix.__add__, zip(map(_point_of, moves)))  # zip of one iterable: each point in a 1-tuple
            else:
                for point, rest, size in moves:
                    if size <= budget:
                        yield from extend(prefix + (point,), rest, remaining - 1, r_next)

    full = (1 << k) - 1
    yield _suffixes(full, 0, r_points, after_r, r_points, surjective)  # the empty model, unless colors are left unused
    for length in range(1, k + 1):  # no color reuse forces at most k points
        yield from extend((), full, length, r_points)


def enumerate_models(k: int, constrained: bool = True) -> Iterator[MulticoloredModel]:
    """Every valid model over colors 1..k, exactly once, in canonical order."""
    return _stream(k, constrained, False, True)


def enumerate_surjective(k: int, constrained: bool = True) -> Iterator[MulticoloredModel]:
    """The sub-stream of enumerate_models whose models use every color in 1..k."""
    return _stream(k, constrained, True, True)


def enumerate_ordered_set_partitions(k: int, cap: int | None = None) -> Iterator[MulticoloredModel]:
    """All-S-point surjective models: the ordered set partitions of {1..k}.
    The cap is checked at the call, a k beyond kernel.MAX_K at the first next."""
    check_cap(k, cap)
    return _stream(k, False, True, False)


def surjective_first_point_split(
    k: int, constrained: bool = True, cap: int | None = None
) -> tuple[int, int]:
    """(S-first, R-first) counts over the surjective stream, by walking all models.

    The empty model (k=0) lands in the S-first slot, matching the recurrence
    base K1(0)=1, K2(0)=0.
    """
    check_cap(k, cap)
    return kernel.root_split(k, constrained, True)
