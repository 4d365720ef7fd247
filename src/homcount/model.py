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

One point writer and one point reader serve all three wire formats, and each
format is one _Format row (_MODEL, _DESCRIPTION, _COLORED) that states, once,
what sets it apart: the document key ("points" for models, "segments" for
descriptions of both kinds) and the name a refusal gives the document
("malformed model JSON: ..."); the type tags ("R"/"S" for models,
"block"/"shuffle" for descriptions); the label field ("color" or "kind"), its
set field ("colors" or "kinds") and the noun of a label in a set ("a color in
colors"), which only the color codec's refusals name; and the label codec: a
color is a JSON integer, a kind is {"finite": size} or the name of an infinite
kind. The reader owns the document-key lookup and the malformed-document rule,
and each writer takes the document key from its row, so each public reader and
writer is one call with its row. A codec takes a
point's whole label sequence in one call and handles the common label inline,
without a Python call per label: the color codec tests ``type(x) is int``, the
kind reader takes a one-key {"finite": size} dict with an int size. Any other
label goes through combinatorics.integer or kind_from_json, which refuse it
with the reader's message.

An S-point stores its label set once, as a tuple in kind_key order (colors
ascending, then omega, omega*, zeta, then any label that is no block kind, by
type name and repr), so every reader walks a set in the same order under every
hash seed and a set of any labels sorts; ``SPoint.__new__`` is the one place
that sorts, and a set of ints (every color set) sorts without the key.

Points, models, violations and reports are named tuples: immutable and
hashable, with reprs that name their type and fields. Equality is the tuple's,
so a value equals the plain tuple of its fields (``RPoint(1) == (1,)``) and
has len and iteration; an R-point's label is never a tuple, so
``RPoint(1) != SPoint([1])``. ``SPoint`` and ``MulticoloredModel`` keep a
normalizing constructor (the label set sorted and deduplicated, the points
made a tuple); code that already holds normalized fields may build a value
with ``tuple.__new__`` and skip it.

Validators read once, decide, then diagnose. Each reads its points into a
tuple once, so a one-shot iterator gives what a tuple gives, and decides
validity (_decide): one pass over the points gathers their labels in a flat
list and stops at an empty set, at a point that is no RPoint or SPoint, and at
two R-points in a row where they are forbidden; then set, map, min and max
check in C that the labels are distinct ints in range. A valid input returns
one shared empty report. The description decision admits finite kinds only, so
a description with an infinite kind is always diagnosed. Only an input that
the decision refuses goes to the one diagnosis (_diagnose), which builds every
violation.

Validators return violation lists rather than raising. The diagnosis reports
in three passes. The first checks the two axioms that every format shares: no
set is empty (``Tprime.2``, ``T.shuffle_empty``) and no color or kind is in two
segments (``Tprime.5``-``Tprime.7``, ``T.disjoint``). The second applies the
format's label rule (range, size or kind) once per label, at its first
position. The third applies the format's pair rule to each two adjacent
R-points. Each violation carries a machine-readable axiom identifier:

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
from typing import Callable, Iterable, NamedTuple, Union

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
_INT = frozenset([int])  # _INT.issuperset(map(type, labels)): every label is an int, decided in C


def kind_key(kind) -> tuple:
    """Deterministic sort key, total over any labels: finite kinds (and colors,
    bools among them) by size, then omega < omega* < zeta, then every other
    label by its type's name and its repr, so a set that mixes in a label that
    is no block kind still sorts and validation can name that label."""
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
        labels = set(colors)
        # kind_key orders ints as they order themselves, so a set of ints (every color set) sorts without it
        return tuple.__new__(cls, (tuple(sorted(labels) if _INT.issuperset(map(type, labels)) else
                                         sorted(labels, key=kind_key)),))


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


_VALID = ValidationReport()  # the report of every input that _decide admits, shared


def _decide(points: tuple, consecutive_r: bool, low: int | None, high: int | None) -> bool:
    """Whether `points` are valid with distinct int labels in low..high (None:
    unbounded), decided without a Python call per label: one pass over the
    points gathers their labels in a flat list and stops at an empty set, at a
    point that is no RPoint or SPoint, and at an R-point after an R-point
    unless `consecutive_r`; set, map, min and max decide the rest. False says
    only that the validator must diagnose the points to report what is wrong."""
    labels: list = []
    single = False
    for p in points:
        if type(p) is RPoint:
            if single and not consecutive_r:
                return False
            labels.append(p.color)
            single = True
        elif type(p) is SPoint and p.colors:
            labels += p.colors
            single = False
        else:
            return False
    if not labels:
        return True
    # ints first, so that set() meets no unhashable label
    return (_INT.issuperset(map(type, labels)) and len(set(labels)) == len(labels)
            and (low is None or min(labels) >= low) and (high is None or max(labels) <= high))


def _diagnose(points: tuple, empty: str, reused: str, by_holders: dict, name, bad_label, bad_pair) -> ValidationReport:
    """The report on points that _decide refused, in three passes.

    1. The two axioms every format shares: no set is empty (`empty`) and no
       label is in two points. A reused label breaks the axiom that
       `by_holders` names for the pair (first holder is an R-point, this
       holder is an R-point), else `reused`; it is compared with its first
       holder and named in the message by `name(label)`.
    2. The format's label rule, `bad_label(label, i)`: a Violation or None,
       once per label at its first position, labels in point order and,
       within a set, in stored (canonical) order.
    3. The format's pair rule, `bad_pair(left, right)` on the labels of each
       two adjacent R-points: an (axiom, text) pair or None. None for
       `bad_pair` skips the pass.
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
    out += filter(None, [bad_label(label, i) for label, (i, _) in first.items()])
    for i in range(len(points) - 1 if bad_pair else 0):
        left, right = points[i], points[i + 1]
        if isinstance(left, RPoint) and isinstance(right, RPoint) and (bad := bad_pair(left.color, right.color)):
            out.append(Violation(bad[0], (i, i + 1), f"{bad[1]} at {i},{i + 1}"))
    return ValidationReport(tuple(out))


def validate_model(m: MulticoloredModel) -> ValidationReport:
    """Check every model invariant; violations are data, not failures. A k
    that is no int >= 0 and a flag that is no bool are refused with
    model_to_dict's ValueError instead: they are no model to report on."""
    k = nonnegative(m.k, "k")
    constrained = boolean(m.adjacency_constrained, "adjacency_constrained")
    points = tuple(m.points)
    if _decide(points, not constrained, 1, k):
        return _VALID
    return _diagnose(points, "Tprime.2", "Tprime.7", {(True, True): "Tprime.5", (False, False): "Tprime.6"},
                     "color {}".format,
                     lambda c, i: None if type(c) is int and 1 <= c <= k else  # a bool or a block kind is no color
                     Violation("Tprime.range", (i,), f"color {c} at {i} outside 1..{k}"),
                     (lambda left, right: ("Tprime.3b", "consecutive R-points")) if constrained else None)


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


def _bad_kind(kind, i: int) -> Violation | None:
    """A description's label rule: a finite kind of size < 1 or a label that is no block kind, first seen at i."""
    if type(kind) is int and kind < 1:
        return Violation("T.finite_size", (i,), f"finite kind of size {kind} at {i}")
    if _kind_class(kind) is None:  # a bool is no finite kind
        return Violation("T.kind", (i,), f"{_kind_name(kind)} at {i} is not a block kind")
    return None


def validate_description(d: OrderingDescription) -> ValidationReport:
    points = tuple(d)
    if _decide(points, False, 1, None):  # finite kinds only: two adjacent finite singletons glue (T.4)
        return _VALID
    return _diagnose(points, "T.shuffle_empty", "T.disjoint", {}, _kind_name, _bad_kind,
                     lambda left, right: _SINGLETON_ADJACENCY.get((_kind_class(left), _kind_class(right))))


def validate_colored_description(d: ColoredDescription) -> ValidationReport:
    """Colored descriptions only require nonempty shuffles, globally unique
    colors and labels that are colors: ints, not bools or block kinds."""
    points = tuple(d)
    if _decide(points, True, None, None):
        return _VALID
    return _diagnose(points, "T.shuffle_empty", "T.disjoint", {}, "color {}".format,
                     lambda c, i: None if type(c) is int else
                     Violation("T.color", (i,), f"label {c!r} at {i} is not a color"), None)


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


def _ints(labels, noun: str) -> list:
    """The color codec, both ways: a color is a JSON integer, written and read
    as is. An int is tested inline; any other label goes to
    combinatorics.integer, which refuses it (JSON's booleans load as bool and
    its floats as float, so both are refused rather than coerced)."""
    return [x if type(x) is int else integer(x, noun) for x in labels]


def _kinds_to_json(labels, noun: str) -> list:
    return [{"finite": x} if type(x) is int else kind_to_json(x) for x in labels]


def _kinds_from_json(values: list, noun: str) -> list:
    """A {"finite": size} with an int size is read inline; every other value,
    a refused one included, goes through kind_from_json."""
    return [x["finite"] if type(x) is dict and len(x) == 1 and type(x.get("finite")) is int else kind_from_json(x)
            for x in values]


# A wire format, stated once as a row: the document key that holds the points
# and the name a refusal gives the document; the R-point and S-point type tags;
# the label field, its set field and the noun of a label in a set; and the label
# codec, an encoder and a decoder of a sequence of labels. Each codec function
# is given the labels and the noun, and handles the common label (an int)
# without a Python call. The color codec names a refused label by the noun; the
# kind codec names it by its encoding, so a kind row's noun reaches no message.
# The encoder refuses what the decoder would refuse, so no writer emits a
# document that its reader refuses.
_Format = NamedTuple("_Format", [("key", str), ("name", str), ("r_tag", str), ("s_tag", str), ("field", str),
                                 ("fields", str), ("in_set", str), ("write", Callable), ("read", Callable)])
_MODEL = _Format("points", "model", "R", "S", "color", "colors", "a color in colors", _ints, _ints)
_DESCRIPTION = _Format("segments", "description", "block", "shuffle", "kind", "kinds", "a kind in kinds",
                       _kinds_to_json, _kinds_from_json)
# a colored description is written as a model's points under a description's key and tags
_COLORED = _MODEL._replace(key="segments", name="colored description", r_tag="block", s_tag="shuffle")


def _points_to_json(points: Iterable[Point], fmt: _Format) -> list:
    """The wire form of `points` in the format `fmt`, each tagged by the row's
    R-point or S-point tag, with its labels encoded by the row's codec; a label
    the codec refuses is a ValueError."""
    r_tag, s_tag, field, fields, write = fmt.r_tag, fmt.s_tag, fmt.field, fmt.fields, fmt.write
    bare = write is _ints  # an int color is its own wire form: an R-point's is written inline
    out = []
    for p in points:
        if type(p) is RPoint:  # cheaper than isinstance; this runs once per point written
            x = p.color
            out.append({"type": r_tag, field: x if bare and type(x) is int else write((x,), field)[0]})
        else:
            out.append({"type": s_tag, fields: write(p.colors, fmt.in_set)})
    return out


def _points_from_json(data: dict, fmt: _Format) -> tuple[Point, ...]:
    """The points of the document `data` in the format `fmt`, the inverse of
    _points_to_json. A points value that is no list, an entry of another type,
    a label the codec refuses and a set that lists a label twice are refused by
    name; a missing key or a value of the wrong shape is _malformed."""
    key, r_tag, s_tag, field, fields, read = fmt.key, fmt.r_tag, fmt.s_tag, fmt.field, fmt.fields, fmt.read
    bare = read is _ints  # an int color is its own wire form: an R-point's is read inline
    points: list[Point] = []
    try:
        for entry in _list(data[key], key):
            tag = entry["type"]
            if tag == r_tag:
                x = entry[field]
                points.append(tuple.__new__(RPoint, (x if bare and type(x) is int else read([x], field)[0],)))
            elif tag == s_tag:
                listed = _list(entry[fields], fields)
                point = SPoint(read(listed, fmt.in_set))
                if len(point.colors) != len(listed):
                    raise ValueError(f"{fields} repeats an entry: {listed!r}")
                points.append(point)
            else:
                raise ValueError(f"unknown {key[:-1]} type {tag!r}")  # a point or a segment
    except (KeyError, TypeError) as exc:
        raise _malformed(fmt, exc) from exc
    return tuple(points)


def _malformed(fmt: _Format, exc: Exception) -> ValueError:
    """The error a reader of the format `fmt` raises when its document lacks a
    key or has the wrong shape; it names the document by the row's name."""
    return ValueError(f"malformed {fmt.name} JSON: {'missing key ' if isinstance(exc, KeyError) else ''}{exc}")


def model_to_dict(m: MulticoloredModel) -> dict:
    """The model's wire form. A k, a flag or a label that model_from_dict would
    refuse is refused here with the reader's message."""
    k = nonnegative(m.k, "k")
    constrained = boolean(m.adjacency_constrained, "adjacency_constrained")
    return {"k": k, "adjacency_constrained": constrained, _MODEL.key: _points_to_json(m.points, _MODEL)}


def model_from_dict(data: dict) -> MulticoloredModel:
    try:
        k = nonnegative(data["k"], "k")
        constrained = boolean(data["adjacency_constrained"], "adjacency_constrained")
    except (KeyError, TypeError) as exc:
        raise _malformed(_MODEL, exc) from exc
    # the reader's points are a tuple, so the model skips its normalizing constructor
    return tuple.__new__(MulticoloredModel, (k, _points_from_json(data, _MODEL), constrained))


def description_to_dict(d: OrderingDescription) -> dict:
    return {_DESCRIPTION.key: _points_to_json(d, _DESCRIPTION)}


def description_from_dict(data: dict) -> OrderingDescription:
    return _points_from_json(data, _DESCRIPTION)


def colored_description_to_dict(d: ColoredDescription) -> dict:
    return {_COLORED.key: _points_to_json(d, _COLORED)}


def colored_description_from_dict(data: dict) -> ColoredDescription:
    return _points_from_json(data, _COLORED)
