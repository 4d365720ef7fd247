"""Encodable finite structures: multicolored models and symbolic ordering descriptions.

A multicolored model is a finite sequence of points over colors 1..k. Each
point either carries a single color as an R-point (a singleton block in the
ordering it encodes) or a nonempty color set as an S-point (a dense shuffle of
the corresponding blocks). Every color may be used at most once in the whole
model. With ``adjacency_constrained`` set, two R-points may not be consecutive
(two adjacent singleton blocks would merge); without it, the same data encodes
a homogeneous k-colored ordering instead.

An ordering description is the block-level picture, and it is made of the same
points over block kinds instead of colors: a finite kind is its size, a plain
int, and the infinite kinds are omega, omega* and zeta. An R-point is a
singleton block of its kind, an S-point a shuffle of its kinds. Every kind is
used at most once overall, and the singleton adjacencies that would glue
blocks together are forbidden. A constrained model's points are therefore its
own description, color i being the block of size i.

A colored description, the picture of an unconstrained model, is that model's
own tuple of points without k. Its rules are that no color repeats and no
shuffle is empty. Descriptions of both kinds, and finite colored orderings (a
color per position), are plain tuples; their names are type aliases.

One point codec writes and reads all three wire formats. They differ in their
type tags ("R"/"S" for models, "block"/"shuffle" for descriptions of both
kinds), their label field ("color" or "kind"; a set's field adds "s") and
their label codec: a color is a JSON integer, a kind is {"finite": size} or
the name of an infinite kind.

An S-point stores its label set once, as a tuple in kind_key order (colors
ascending, then omega, omega*, zeta, then any label that is no block kind, by
type name and repr), so every reader walks a set in the same order under every
hash seed and a set of any labels sorts; ``SPoint.__new__`` is the one place
that sorts.

Points, models, violations and reports are named tuples: immutable and
hashable, with reprs that name their type and fields. Equality is the tuple's,
so a value equals the plain tuple of its fields (``RPoint(1) == (1,)``) and
has len and iteration; an R-point's label is never a tuple, so
``RPoint(1) != SPoint([1])``. ``SPoint`` and ``MulticoloredModel`` keep a
normalizing constructor (the label set sorted and deduplicated, the points
made a tuple); code that already holds normalized fields may build a value
with ``tuple.__new__`` and skip it.

Validators return violation lists rather than raising. One walk over the
segments checks the two axioms that every format shares: no set is empty
(``Tprime.2``, ``T.shuffle_empty``) and no color or kind is in two segments
(``Tprime.5``-``Tprime.7``, ``T.disjoint``). Each validator adds its own rules
to it, and reports a label that breaks the range, size or kind rule once, at
its first position. Each violation carries a machine-readable axiom identifier:

==============  =====================================================
``Tprime.2``    point carries no color (empty S-set)
``Tprime.3b``   consecutive R-points (adjacency-constrained models)
``Tprime.5``    color used by two R-points
``Tprime.6``    color used by two S-points
``Tprime.7``    color used by both an R-point and an S-point
``Tprime.range``  color that is not an int in 1..k
``T.4``         two consecutive finite singleton blocks
``T.5``         finite singleton block directly before an omega block
``T.6``         omega* singleton block directly before a finite block
``T.7``         omega* singleton block directly before an omega block
``T.disjoint``  block kind (or color) used twice across a description
``T.shuffle_empty``  shuffle of the empty set
``T.finite_size``    finite kind of size < 1
``T.kind``      label that is neither an int nor an infinite kind
``T.color``     label of a colored description that is not an int
==============  =====================================================
"""

from __future__ import annotations

import enum
from typing import Iterable, NamedTuple, Union

from homcount.combinatorics import boolean, integer, nonnegative


# ---------------------------------------------------------------------------
# block kinds, points, models and descriptions


class InfiniteKind(enum.Enum):
    OMEGA = "omega"
    OMEGA_STAR = "omega_star"
    ZETA = "zeta"


OMEGA = InfiniteKind.OMEGA
OMEGA_STAR = InfiniteKind.OMEGA_STAR
ZETA = InfiniteKind.ZETA

BlockKind = Union[int, InfiniteKind]  # a finite kind is its size


_INFINITE_RANK = {OMEGA: 0, OMEGA_STAR: 1, ZETA: 2}


def kind_key(kind) -> tuple:
    """Deterministic sort key, total over any labels: finite kinds (and colors,
    bools among them) by size, then omega < omega* < zeta, then every other
    label by its type's name and its repr, so a set that mixes in a label that
    is no block kind still sorts and validation can name that label."""
    if type(kind) is int:  # the common case: SPoint sorts every parsed set with this key
        return (0, kind)
    if type(kind) is InfiniteKind:
        return (1, _INFINITE_RANK[kind])
    if isinstance(kind, int):
        return (0, kind)
    return (2, type(kind).__name__, repr(kind))


class RPoint(NamedTuple):
    """A point carrying exactly one label: a color in a model, a block kind in a
    description. It encodes a singleton block of that size or kind."""

    color: BlockKind

    @property
    def colors(self) -> tuple[BlockKind]:
        """The one label, as the label set that an S-point stores."""
        return (self.color,)


class SPoint(NamedTuple("SPoint", [("colors", tuple[BlockKind, ...])])):
    """A point carrying a label set: colors in a model, block kinds in a
    description. It encodes a shuffle of those blocks. The set is stored once,
    without repeats, as a tuple in kind_key order."""

    __slots__ = ()

    def __new__(cls, colors: Iterable[BlockKind]):
        return tuple.__new__(cls, (tuple(sorted(set(colors), key=kind_key)),))


Point = Union[RPoint, SPoint]


class MulticoloredModel(
    NamedTuple("MulticoloredModel", [("k", int), ("points", tuple[Point, ...]), ("adjacency_constrained", bool)])
):
    __slots__ = ()

    def __new__(cls, k: int, points: Iterable[Point] = (), adjacency_constrained: bool = True):
        return tuple.__new__(cls, (k, tuple(points), adjacency_constrained))

    def used_colors(self) -> frozenset[int]:
        return frozenset(c for p in self.points for c in p.colors)


OrderingDescription = tuple[Point, ...]  # points over block kinds
ColoredDescription = tuple[Point, ...]  # an unconstrained model's own points, without k
FiniteColoredOrdering = tuple[int, ...]  # position i has color o[i]


# ---------------------------------------------------------------------------
# validation


class Violation(NamedTuple):
    axiom: str
    positions: tuple[int, ...]
    message: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def axioms(self) -> set[str]:
        return {v.axiom for v in self.violations}


def _walk(points, empty: str, reused: str, by_holders: dict, name) -> tuple[list[Violation], dict]:
    """The two axioms every format shares, walked once: no set is empty
    (`empty`) and no label is in two points. A reused label breaks the axiom
    that `by_holders` names for the pair (first holder is an R-point, this
    holder is an R-point), else `reused`; it is compared with its first holder
    and named in the message by `name(label)`.

    Returns the violations and each label's first (position, is_r_point),
    labels in point order and, within a set, in stored (canonical) order.
    """
    out: list[Violation] = []
    first: dict = {}
    for i, p in enumerate(points):
        single, labels = type(p) is RPoint, p.colors
        if not labels:
            out.append(Violation(empty, (i,), f"empty set at {i}"))
        for label in labels:
            if label in first:
                j, was_single = first[label]
                axiom = by_holders.get((was_single, single), reused)
                out.append(Violation(axiom, (j, i), f"{name(label)} reused at {j} and {i}"))
            else:
                first[label] = (i, single)
    return out, first


def validate_model(m: MulticoloredModel) -> ValidationReport:
    """Check every model invariant; violations are data, not failures. A k
    that is no int >= 0 and a flag that is no bool are refused with
    model_to_dict's ValueError instead: they are no model to report on."""
    nonnegative(m.k, "k")
    constrained = boolean(m.adjacency_constrained, "adjacency_constrained")
    out, first = _walk(m.points, "Tprime.2", "Tprime.7", {(True, True): "Tprime.5", (False, False): "Tprime.6"},
                       "color {}".format)
    for color, (i, _) in first.items():
        if type(color) is not int or not 1 <= color <= m.k:  # a bool or a block kind is no color
            out.append(Violation("Tprime.range", (i,), f"color {color} at {i} outside 1..{m.k}"))
    if constrained:
        for i in range(len(m.points) - 1):
            if isinstance(m.points[i], RPoint) and isinstance(m.points[i + 1], RPoint):
                out.append(Violation("Tprime.3b", (i, i + 1), f"consecutive R-points at {i},{i + 1}"))
    return ValidationReport(tuple(out))


_SINGLETON_ADJACENCY = {
    # (kind class of left, kind class of right) -> axiom, for forbidden pairs
    ("finite", "finite"): ("T.4", "adjacent finite blocks"),
    ("finite", "omega"): ("T.5", "finite block before omega"),
    ("omega_star", "finite"): ("T.6", "omega-star before finite"),
    ("omega_star", "omega"): ("T.7", "omega-star before omega"),
}


def _kind_class(label) -> str | None:
    """A label's class in the adjacency table: "finite", an infinite kind's
    value, or None for a label that is no block kind."""
    if type(label) is int:
        return "finite"
    return label.value if type(label) is InfiniteKind else None


def _kind_name(label) -> str:
    """A kind in its wire encoding; a label that is no block kind by its repr."""
    return f"label {label!r}" if _kind_class(label) is None else f"kind {kind_to_json(label)}"


def validate_description(d: OrderingDescription) -> ValidationReport:
    out, first = _walk(d, "T.shuffle_empty", "T.disjoint", {}, _kind_name)
    for kind, (i, _) in first.items():
        if type(kind) is int and kind < 1:
            out.append(Violation("T.finite_size", (i,), f"finite kind of size {kind} at {i}"))
        elif _kind_class(kind) is None:  # a bool is no finite kind
            out.append(Violation("T.kind", (i,), f"{_kind_name(kind)} at {i} is not a block kind"))
    for i in range(len(d) - 1):
        left, right = d[i], d[i + 1]
        if isinstance(left, RPoint) and isinstance(right, RPoint):
            pair = (_kind_class(left.color), _kind_class(right.color))
            if pair in _SINGLETON_ADJACENCY:
                axiom, label = _SINGLETON_ADJACENCY[pair]
                out.append(Violation(axiom, (i, i + 1), f"{label} at {i},{i + 1}"))
    return ValidationReport(tuple(out))


def validate_colored_description(d: ColoredDescription) -> ValidationReport:
    """Colored descriptions only require nonempty shuffles, globally unique
    colors and labels that are colors: ints, not bools or block kinds."""
    out, first = _walk(d, "T.shuffle_empty", "T.disjoint", {}, "color {}".format)
    for color, (i, _) in first.items():
        if type(color) is not int:
            out.append(Violation("T.color", (i,), f"label {color!r} at {i} is not a color"))
    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# canonical order
#
# Models of one k are ordered shorter first, then point by point: R-points
# before S-points, an R-point by its color, an S-point by its stored
# (ascending) color tuple. A key is one flat tuple, (n, tag, label, ..., tag,
# label) for n points, where an R-point contributes the pair (0, its color) and
# an S-point the pair (1, its own colors tuple), shared and not copied. Tuples
# compare item by item and a tag is compared before its label, so two labels
# are compared only under equal tags: int with int, tuple with tuple. Keying a
# model builds that one tuple and nothing else.


def canonical_key(m: MulticoloredModel) -> tuple:
    """The sort key of the canonical order on models of one k: the flat tuple
    (n, tag, label, ...) of each point's (tag, label) pair after the number of
    points n. Equal keys mean equal points, so the order is total; the streams
    of enumeration yield models in it."""
    key = [len(m.points)]
    for p in m.points:
        key += (0, p.color) if type(p) is RPoint else (1, p.colors)
    return tuple(key)


# ---------------------------------------------------------------------------
# JSON wire formats (bit-exact contracts; label sets are lists in stored order, never bitmasks)


def _list(value, what: str) -> list:
    if type(value) is list:
        return value
    raise ValueError(f"{what} must be a list, got {value!r}")


def kind_to_json(kind: BlockKind):
    if type(kind) is int:
        return {"finite": kind}
    if type(kind) is InfiniteKind:
        return kind.value
    raise ValueError(f"label {kind!r} is not a block kind")


def kind_from_json(data) -> BlockKind:
    if isinstance(data, dict) and set(data) == {"finite"}:
        return integer(data["finite"], "finite size")
    if isinstance(data, str):
        for member in InfiniteKind:
            if member.value == data:
                return member
    raise ValueError(f"unknown block kind encoding {data!r}")


# A label codec: the wire field of one label (a set's field adds "s"), the
# label's encoder and its decoder. Each is given the value and the noun that
# an error names it by. The encoder refuses what the decoder would refuse, so
# no writer emits a document that its reader refuses; a color is written as
# is once combinatorics.integer has checked it (JSON's booleans load as bool
# and its floats as float, so both are refused rather than coerced).
_COLORS = ("color", integer, integer)
_KINDS = ("kind", lambda kind, what: kind_to_json(kind), lambda data, what: kind_from_json(data))


def _points_to_json(points: Iterable[Point], r_tag: str, s_tag: str, codec: tuple) -> list:
    """The wire form of `points`, each tagged `r_tag` (R-point) or `s_tag`
    (S-point), with its labels encoded by `codec`; a label the codec refuses is
    a ValueError."""
    field, write, _ = codec
    fields = field + "s"
    in_set = f"a {field} in {fields}"
    out = []
    for p in points:
        if type(p) is RPoint:  # cheaper than isinstance; this runs once per point written
            out.append({"type": r_tag, field: write(p.color, field)})
        else:
            out.append({"type": s_tag, fields: [write(x, in_set) for x in p.colors]})
    return out


def _points_from_json(entries: list, r_tag: str, s_tag: str, codec: tuple) -> tuple[Point, ...]:
    """Inverse of _points_to_json; an entry of another type, a label the codec
    refuses and a set that lists a label twice are refused."""
    field, _, read = codec
    fields = field + "s"
    in_set = f"a {field} in {fields}"
    points: list[Point] = []
    for entry in entries:
        tag = entry["type"]
        if tag == r_tag:
            points.append(RPoint(read(entry[field], field)))
        elif tag == s_tag:
            listed = _list(entry[fields], fields)
            point = SPoint([read(x, in_set) for x in listed])
            if len(point.colors) != len(listed):
                raise ValueError(f"{fields} repeats an entry: {listed!r}")
            points.append(point)
        else:
            raise ValueError(f"unknown {'point' if r_tag == 'R' else 'segment'} type {tag!r}")
    return tuple(points)


def _malformed(what: str, exc: Exception) -> ValueError:
    """The error a reader raises when `data` lacks a key or has the wrong shape."""
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    return ValueError(f"malformed {what} JSON: {detail}")


def model_to_dict(m: MulticoloredModel) -> dict:
    """The model's wire form. A k, a flag or a label that model_from_dict would
    refuse is refused here with the reader's message."""
    k = nonnegative(m.k, "k")
    constrained = boolean(m.adjacency_constrained, "adjacency_constrained")
    points = _points_to_json(m.points, "R", "S", _COLORS)
    return {"k": k, "adjacency_constrained": constrained, "points": points}


def model_from_dict(data: dict) -> MulticoloredModel:
    try:
        k = nonnegative(data["k"], "k")
        constrained = boolean(data["adjacency_constrained"], "adjacency_constrained")
        points = _points_from_json(_list(data["points"], "points"), "R", "S", _COLORS)
    except (KeyError, TypeError) as exc:
        raise _malformed("model", exc) from exc
    return MulticoloredModel(k, points, constrained)


def description_to_dict(d: OrderingDescription) -> dict:
    return {"segments": _points_to_json(d, "block", "shuffle", _KINDS)}


def description_from_dict(data: dict) -> OrderingDescription:
    try:
        return _points_from_json(_list(data["segments"], "segments"), "block", "shuffle", _KINDS)
    except (KeyError, TypeError) as exc:
        raise _malformed("description", exc) from exc


def colored_description_to_dict(d: ColoredDescription) -> dict:
    return {"segments": _points_to_json(d, "block", "shuffle", _COLORS)}


def colored_description_from_dict(data: dict) -> ColoredDescription:
    try:
        return _points_from_json(_list(data["segments"], "segments"), "block", "shuffle", _COLORS)
    except (KeyError, TypeError) as exc:
        raise _malformed("colored description", exc) from exc
