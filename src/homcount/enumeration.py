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
models, and _stream flattens them with itertools.chain.from_iterable, so no
Python frame runs for a model inside a batch. A prefix with at most
BULK_COLORS = 3 free colors is one batch: _suffixes holds every run of points
that completes it, in canonical order, per free-color mask, points remaining,
whether an R-point may come next and the stream's flags, built once from
_point_moves. The batch maps prefix.__add__ over that table and builds each
model with tuple.__new__ from fields that are already normalized, which skips
MulticoloredModel's constructor. A prefix with more free colors and one point
to go is a batch of its R-moves and one of its S-moves. A surjective stream
reads no move table for that last point: only the S-point of every free color
can close the model.

Counting never materializes models: it goes through homcount.kernel, which
walks the same choice tree and splits the surjective models into S-first and
R-first at its root. surjective_first_point_split and
enumerate_ordered_set_partitions are the library's capped entry points: each
applies kernel.check_cap first. The cap (DEFAULT_CAP, BruteForceCapError,
brute_force_cap, check_cap) lives in kernel and is imported from there.

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
    R-points, `surjective` keeps only the models that use every color."""
    return chain.from_iterable(_batches(k, constrained, surjective, r_points))


def _batches(k: int, constrained: bool, surjective: bool, r_points: bool) -> Iterator[Iterable[MulticoloredModel]]:
    """_stream's models, in canonical order, as a lazy series of batches."""
    kernel.check_k(k)
    after_r = r_points and not constrained
    new = tuple.__new__

    def models(prefix: tuple, suffixes: Iterable[tuple]) -> Iterator[MulticoloredModel]:
        """The model of `prefix` followed by each suffix, built at C speed: the
        points are already a tuple, so MulticoloredModel.__new__ would have
        nothing to normalize."""
        return map(new, repeat(MulticoloredModel), zip(repeat(k), map(prefix.__add__, suffixes), repeat(constrained)))

    def extend(prefix: tuple, avail: int, remaining: int, r_ok: bool) -> Iterator[Iterable[MulticoloredModel]]:
        """The models that extend `prefix` by exactly `remaining` >= 1 points."""
        if avail.bit_count() <= BULK_COLORS:
            yield models(prefix, _suffixes(avail, remaining, r_ok, after_r, r_points, surjective))
            return
        if remaining == 1 and surjective:  # with more than BULK_COLORS free colors only their S-point closes the model
            yield (new(MulticoloredModel, (k, prefix + (_s_point(avail),), constrained)),)
            return
        r_moves, s_moves = _point_moves(avail)
        budget = avail.bit_count() - remaining + 1  # colors this point may consume
        for moves, r_next in ((r_moves if r_ok else (), after_r), (s_moves, r_points)):
            if remaining == 1:
                yield models(prefix, zip(map(_point_of, moves)))  # zip of one iterable: each point in a 1-tuple
            else:
                for point, rest, size in moves:
                    if size <= budget:
                        yield from extend(prefix + (point,), rest, remaining - 1, r_next)

    if not (surjective and k):
        yield (MulticoloredModel(k, (), constrained),)
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
