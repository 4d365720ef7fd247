"""Finite encodable structures: multicolored models and symbolic ordering descriptions.

A multicolored model is a finite sequence of points over colors 1..k. Each
point either carries a single color as an R-point (a singleton block in the
ordering it encodes) or a nonempty color set as an S-point (a dense shuffle of
the corresponding blocks). Every color may be used at most once in the whole
model. With ``adjacency_constrained`` set, two R-points may not be consecutive
(two adjacent singleton blocks would merge); without it, the same data encodes
a homogeneous k-colored ordering instead.

An ordering description is the block-level picture: a sequence of segments,
each a singleton block of some kind (a finite size, omega, omega*, or zeta) or
a shuffle of a set of kinds, with every kind used at most once overall and the
singleton adjacencies that would glue blocks together forbidden.

A colored description, the picture of an unconstrained model, is that model's
own tuple of ``RPoint`` and ``SPoint`` values without k. Its rules are that
no color repeats and no shuffle is empty. One point codec writes and reads
both wire formats, which differ only in their type tags: "R"/"S" for models,
"block"/"shuffle" for colored descriptions. Descriptions of both kinds, and
finite colored orderings (a color per position), are plain tuples; their
names are type aliases.

Validators return violation lists rather than raising. One walk over the
segments checks the two axioms that every format shares: no set is empty
(``Tprime.2``, ``T.shuffle_empty``) and no color or kind is in two segments
(``Tprime.5``-``Tprime.7``, ``T.disjoint``). Each validator adds its own rules
to it, and reports a label that breaks the range or size rule once, at its
first position. Each violation carries a machine-readable axiom identifier:

==============  =====================================================
``Tprime.2``    point carries no color (empty S-set)
``Tprime.3b``   consecutive R-points (adjacency-constrained models)
``Tprime.5``    color used by two R-points
``Tprime.6``    color used by two S-points
``Tprime.7``    color used by both an R-point and an S-point
``Tprime.range``  color outside 1..k
``T.4``         two consecutive finite singleton blocks
``T.5``         finite singleton block directly before an omega block
``T.6``         omega* singleton block directly before a finite block
``T.7``         omega* singleton block directly before an omega block
``T.disjoint``  block kind (or color) used twice across a description
``T.shuffle_empty``  shuffle of the empty set
``T.finite_size``    finite kind of size < 1
==============  =====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Union


# ---------------------------------------------------------------------------
# points and models


@dataclass(frozen=True)
class RPoint:
    """A point carrying exactly one color; encodes a singleton block of that size."""

    color: int


@dataclass(frozen=True)
class SPoint:
    """A point carrying a nonempty color set; encodes a shuffle of those block sizes."""

    colors: frozenset[int]

    def __init__(self, colors: Iterable[int]):
        object.__setattr__(self, "colors", frozenset(colors))


Point = Union[RPoint, SPoint]


@dataclass(frozen=True)
class MulticoloredModel:
    k: int
    points: tuple[Point, ...] = ()
    adjacency_constrained: bool = True

    def __init__(self, k: int, points: Iterable[Point] = (), adjacency_constrained: bool = True):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "adjacency_constrained", adjacency_constrained)

    def used_colors(self) -> frozenset[int]:
        used: set[int] = set()
        for p in self.points:
            if isinstance(p, RPoint):
                used.add(p.color)
            else:
                used.update(p.colors)
        return frozenset(used)


# ---------------------------------------------------------------------------
# block kinds, descriptions


@dataclass(frozen=True)
class Finite:
    """Block of finite size n >= 1."""

    size: int


class InfiniteKind(enum.Enum):
    OMEGA = "omega"
    OMEGA_STAR = "omega_star"
    ZETA = "zeta"


OMEGA = InfiniteKind.OMEGA
OMEGA_STAR = InfiniteKind.OMEGA_STAR
ZETA = InfiniteKind.ZETA

BlockKind = Union[Finite, InfiniteKind]


def kind_key(kind: BlockKind) -> tuple[int, int]:
    """Deterministic sort key: finite kinds by size, then omega < omega* < zeta."""
    if isinstance(kind, Finite):
        return (0, kind.size)
    return (1, [OMEGA, OMEGA_STAR, ZETA].index(kind))


@dataclass(frozen=True)
class SingletonBlock:
    kind: BlockKind


@dataclass(frozen=True)
class Shuffle:
    kinds: frozenset[BlockKind]

    def __init__(self, kinds: Iterable[BlockKind]):
        object.__setattr__(self, "kinds", frozenset(kinds))


Segment = Union[SingletonBlock, Shuffle]


OrderingDescription = tuple[Segment, ...]
ColoredDescription = tuple[Point, ...]  # an unconstrained model's own points, without k
FiniteColoredOrdering = tuple[int, ...]  # position i has color o[i]


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    axiom: str
    positions: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def axioms(self) -> set[str]:
        return {v.axiom for v in self.violations}


def _walk(segments, empty: str, reused: str, by_holders: dict) -> tuple[list[Violation], dict]:
    """The two axioms every format shares, walked once: no set is empty
    (`empty`) and no label is in two segments. A reused label breaks the axiom
    that `by_holders` names for the pair (first holder is a singleton, this
    holder is a singleton), else `reused`; it is compared with its first holder.

    Returns the violations and each label's first (position, is_singleton),
    labels in segment order and, within a set, in canonical order.
    """
    out: list[Violation] = []
    first: dict = {}
    for i, seg in enumerate(segments):
        if isinstance(seg, (RPoint, SingletonBlock)):
            single, labels = True, (seg.color if isinstance(seg, RPoint) else seg.kind,)
        else:
            single = False
            labels = sorted(seg.colors) if isinstance(seg, SPoint) else sorted(seg.kinds, key=kind_key)
            if not labels:
                out.append(Violation(empty, (i,), f"empty set at {i}"))
        for label in labels:
            if label in first:
                j, was_single = first[label]
                name = f"color {label}" if isinstance(seg, (RPoint, SPoint)) else f"kind {kind_to_json(label)}"
                axiom = by_holders.get((was_single, single), reused)
                out.append(Violation(axiom, (j, i), f"{name} reused at {j} and {i}"))
            else:
                first[label] = (i, single)
    return out, first


def validate_model(m: MulticoloredModel) -> ValidationReport:
    """Check every model invariant; violations are data, not failures."""
    out, first = _walk(m.points, "Tprime.2", "Tprime.7", {(True, True): "Tprime.5", (False, False): "Tprime.6"})
    for color, (i, _) in first.items():
        if not 1 <= color <= m.k:
            out.append(Violation("Tprime.range", (i,), f"color {color} at {i} outside 1..{m.k}"))
    if m.adjacency_constrained:
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


def _kind_class(kind: BlockKind) -> str:
    return "finite" if isinstance(kind, Finite) else kind.value


def validate_description(d: OrderingDescription) -> ValidationReport:
    out, first = _walk(d, "T.shuffle_empty", "T.disjoint", {})
    for kind, (i, _) in first.items():
        if isinstance(kind, Finite) and kind.size < 1:
            out.append(Violation("T.finite_size", (i,), f"finite kind of size {kind.size} at {i}"))
    for i in range(len(d) - 1):
        left, right = d[i], d[i + 1]
        if isinstance(left, SingletonBlock) and isinstance(right, SingletonBlock):
            pair = (_kind_class(left.kind), _kind_class(right.kind))
            if pair in _SINGLETON_ADJACENCY:
                axiom, label = _SINGLETON_ADJACENCY[pair]
                out.append(Violation(axiom, (i, i + 1), f"{label} at {i},{i + 1}"))
    return ValidationReport(tuple(out))


def validate_colored_description(d: ColoredDescription) -> ValidationReport:
    """Colored descriptions only require nonempty shuffles and globally unique colors."""
    return ValidationReport(tuple(_walk(d, "T.shuffle_empty", "T.disjoint", {})[0]))


# ---------------------------------------------------------------------------
# canonical order


def point_key(p: Point) -> tuple[int, tuple[int, ...]]:
    """R-points before S-points; R by color, S by sorted color tuple."""
    if isinstance(p, RPoint):
        return (0, (p.color,))
    return (1, tuple(sorted(p.colors)))


def canonical_key(m: MulticoloredModel) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """The sort key of the canonical order on models of one k: shorter first,
    then pointwise by point_key. Equal keys mean equal points, so the order is
    total; the streams of enumeration yield models in it."""
    return (len(m.points), tuple([point_key(p) for p in m.points]))


# ---------------------------------------------------------------------------
# JSON wire formats (bit-exact contracts; color sets are sorted lists, never bitmasks)


def _points_to_json(points: Iterable[Point], r_tag: str, s_tag: str) -> list:
    """The wire form of `points`, each tagged `r_tag` (R-point) or `s_tag` (S-point)."""
    out = []
    for p in points:
        if type(p) is RPoint:  # cheaper than isinstance; this runs once per point written
            out.append({"type": r_tag, "color": p.color})
        else:
            out.append({"type": s_tag, "colors": sorted(p.colors)})
    return out


def model_to_dict(m: MulticoloredModel) -> dict:
    points = _points_to_json(m.points, "R", "S")
    return {"k": m.k, "adjacency_constrained": m.adjacency_constrained, "points": points}


def _int(value, what: str) -> int:
    """`value` if it is a JSON integer. JSON's booleans load as bool and its
    floats as float, so both are refused here rather than coerced."""
    if type(value) is int:
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _bool(value, what: str) -> bool:
    if type(value) is bool:
        return value
    raise ValueError(f"{what} must be true or false, got {value!r}")


def _list(value, what: str) -> list:
    if type(value) is list:
        return value
    raise ValueError(f"{what} must be a list, got {value!r}")


def _distinct(entries: frozenset, listed: list, what: str) -> frozenset:
    """`entries`, built from `listed`, if building it merged no two entries."""
    if len(entries) != len(listed):
        raise ValueError(f"{what} repeats an entry: {listed!r}")
    return entries


def _colors(value, what: str) -> frozenset[int]:
    for c in _list(value, what):
        if type(c) is not int:
            raise ValueError(f"a color in {what} must be an integer, got {c!r}")
    return _distinct(frozenset(value), value, what)


def _points_from_json(entries: list, r_tag: str, s_tag: str) -> tuple[Point, ...]:
    """Inverse of _points_to_json; an entry of another type is refused."""
    points: list[Point] = []
    for entry in entries:
        tag = entry["type"]
        if tag == r_tag:
            points.append(RPoint(_int(entry["color"], "color")))
        elif tag == s_tag:
            points.append(SPoint(_colors(entry["colors"], "colors")))
        else:
            entry_name = "point" if r_tag == "R" else "segment"
            raise ValueError(f"unknown {entry_name} type {tag!r}")
    return tuple(points)


def _malformed(what: str, exc: Exception) -> ValueError:
    """The error a reader raises when `data` lacks a key or has the wrong shape."""
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    return ValueError(f"malformed {what} JSON: {detail}")


def model_from_dict(data: dict) -> MulticoloredModel:
    try:
        k = _int(data["k"], "k")
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")
        constrained = _bool(data["adjacency_constrained"], "adjacency_constrained")
        points = _points_from_json(_list(data["points"], "points"), "R", "S")
    except (KeyError, TypeError) as exc:
        raise _malformed("model", exc) from exc
    return MulticoloredModel(k, points, constrained)


def kind_to_json(kind: BlockKind):
    if isinstance(kind, Finite):
        return {"finite": kind.size}
    return kind.value


def kind_from_json(data) -> BlockKind:
    if isinstance(data, dict) and set(data) == {"finite"}:
        return Finite(_int(data["finite"], "finite size"))
    if isinstance(data, str):
        for member in InfiniteKind:
            if member.value == data:
                return member
    raise ValueError(f"unknown block kind encoding {data!r}")


def description_to_dict(d: OrderingDescription) -> dict:
    segments = []
    for seg in d:
        if isinstance(seg, SingletonBlock):
            segments.append({"type": "block", "kind": kind_to_json(seg.kind)})
        else:
            segments.append(
                {"type": "shuffle", "kinds": [kind_to_json(k) for k in sorted(seg.kinds, key=kind_key)]}
            )
    return {"segments": segments}


def description_from_dict(data: dict) -> OrderingDescription:
    try:
        segments: list[Segment] = []
        for entry in _list(data["segments"], "segments"):
            if entry["type"] == "block":
                segments.append(SingletonBlock(kind_from_json(entry["kind"])))
            elif entry["type"] == "shuffle":
                kinds = _list(entry["kinds"], "kinds")
                segments.append(Shuffle(_distinct(frozenset(map(kind_from_json, kinds)), kinds, "kinds")))
            else:
                raise ValueError(f"unknown segment type {entry['type']!r}")
    except (KeyError, TypeError) as exc:
        raise _malformed("description", exc) from exc
    return tuple(segments)


def colored_description_to_dict(d: ColoredDescription) -> dict:
    return {"segments": _points_to_json(d, "block", "shuffle")}


def colored_description_from_dict(data: dict) -> ColoredDescription:
    try:
        return _points_from_json(_list(data["segments"], "segments"), "block", "shuffle")
    except (KeyError, TypeError) as exc:
        raise _malformed("colored description", exc) from exc
