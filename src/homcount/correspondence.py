"""Computable maps between models and descriptions, plus the block-kind classifier.

A constrained model expands pointwise into an ordering description: an R-point
of color i becomes a singleton block of size i, an S-point with color set A
becomes a shuffle of the blocks sized by A. An unconstrained model expands the
same way into a colored description (points and shuffles of colors, no
adjacency rules). Both directions are pure re-taggings, so contraction is the
exact inverse.

classify_cnm decides whether a description stays homogeneous when the language
keeps predicates for n successors, m predecessors, and distances below n+m:
with both parameters finite only blocks of size up to n+m+1 survive; an
infinite successor budget kills no omega* blocks and vice versa; zeta blocks
need at least one infinite side.

is_finite_homogeneous is the brute-force oracle on explicit finite colored
orderings: it searches the full automorphism extension space rather than
assuming that a finite linear order only has the identity automorphism, so the
reduction "homogeneous iff all colors distinct" stays a tested fact.
"""

from __future__ import annotations

import itertools
import math
from typing import Union

from homcount.enumeration import BruteForceCapError
from homcount.model import (
    BlockKind,
    ColoredDescription,
    ColorPoint,
    ColorShuffle,
    Finite,
    FiniteColoredOrdering,
    InfiniteKind,
    MulticoloredModel,
    OMEGA,
    OMEGA_STAR,
    OrderingDescription,
    RPoint,
    Segment,
    Shuffle,
    SingletonBlock,
    SPoint,
    ValidationReport,
    ZETA,
    validate_colored_description,
    validate_description,
    validate_model,
)

HOMOGENEITY_CAP = 8

ExtendedNat = Union[int, float]  # a natural number or math.inf


class InvalidStructureError(ValueError):
    """An input model or description failed validation; carries the report."""

    def __init__(self, what: str, report: ValidationReport):
        self.report = report
        first = report.violations[0]
        super().__init__(f"invalid {what}: {first.axiom}: {first.message}")


def _require_valid_model(m: MulticoloredModel) -> None:
    report = validate_model(m)
    if not report.ok:
        raise InvalidStructureError("model", report)


def _require_nonnegative(k: int) -> None:
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")


def expand_model(m: MulticoloredModel) -> OrderingDescription:
    """Constrained model -> ordering description (color i <-> block size i)."""
    if not m.adjacency_constrained:
        raise ValueError("expand_model expects an adjacency-constrained model")
    _require_valid_model(m)
    segments: list[Segment] = []
    for p in m.points:
        if isinstance(p, RPoint):
            segments.append(SingletonBlock(Finite(p.color)))
        else:
            segments.append(Shuffle(Finite(c) for c in p.colors))
    return OrderingDescription(segments)


def contract_description(d: OrderingDescription, k: int) -> MulticoloredModel:
    """Exact inverse of expand_model; every kind must be finite with size <= k."""
    _require_nonnegative(k)
    report = validate_description(d)
    if not report.ok:
        raise InvalidStructureError("description", report)
    points = []
    for seg in d.segments:
        kinds = [seg.kind] if isinstance(seg, SingletonBlock) else seg.kinds
        for kind in kinds:
            if not isinstance(kind, Finite) or kind.size > k:
                raise ValueError(
                    f"description not in finite-label range: kind {kind} with k={k}"
                )
        if isinstance(seg, SingletonBlock):
            points.append(RPoint(seg.kind.size))
        else:
            points.append(SPoint(kind.size for kind in seg.kinds))
    return MulticoloredModel(k, points, adjacency_constrained=True)


def expand_colored(m: MulticoloredModel) -> ColoredDescription:
    """Unconstrained model -> colored description."""
    if m.adjacency_constrained:
        raise ValueError("expand_colored expects an adjacency-unconstrained model")
    _require_valid_model(m)
    segments = []
    for p in m.points:
        if isinstance(p, RPoint):
            segments.append(ColorPoint(p.color))
        else:
            segments.append(ColorShuffle(p.colors))
    return ColoredDescription(segments)


def contract_colored(d: ColoredDescription, k: int) -> MulticoloredModel:
    """Exact inverse of expand_colored."""
    _require_nonnegative(k)
    report = validate_colored_description(d)
    if not report.ok:
        raise InvalidStructureError("colored description", report)
    points = []
    for seg in d.segments:
        colors = [seg.color] if isinstance(seg, ColorPoint) else seg.colors
        for c in colors:
            if not 1 <= c <= k:
                raise ValueError(f"color {c} outside 1..{k}")
        if isinstance(seg, ColorPoint):
            points.append(RPoint(seg.color))
        else:
            points.append(SPoint(seg.colors))
    return MulticoloredModel(k, points, adjacency_constrained=False)


def _check_extended_nat(name: str, value: ExtendedNat) -> None:
    if value == math.inf or (isinstance(value, int) and value >= 0):
        return
    raise ValueError(f"{name} must be a nonnegative integer or math.inf, got {value!r}")


def _kind_permitted(kind: BlockKind, n: ExtendedNat, m: ExtendedNat) -> bool:
    if isinstance(kind, Finite):
        return kind.size <= n + m + 1
    if kind is OMEGA:
        return m == math.inf
    if kind is OMEGA_STAR:
        return n == math.inf
    if kind is ZETA:
        return n == math.inf or m == math.inf
    raise TypeError(f"unknown block kind {kind!r}")  # pragma: no cover


def classify_cnm(d: OrderingDescription, n: ExtendedNat, m: ExtendedNat) -> bool:
    """Whether every block kind in d survives successor/predecessor budgets (n, m)."""
    _check_extended_nat("n", n)
    _check_extended_nat("m", m)
    report = validate_description(d)
    if not report.ok:
        raise InvalidStructureError("description", report)
    for seg in d.segments:
        kinds = [seg.kind] if isinstance(seg, SingletonBlock) else seg.kinds
        if not all(_kind_permitted(kind, n, m) for kind in kinds):
            return False
    return True


def _automorphisms(o: FiniteColoredOrdering) -> list[tuple[int, ...]]:
    """All order- and color-preserving self-bijections, found exhaustively.

    A backtracking search extends a partial map position by position, each to
    a strictly later position of the same color, and keeps every map that
    completes: exactly the permutations of range(size) that are increasing
    and color-preserving, in lexicographic order.
    """
    colors = o.colors
    size = len(colors)
    autos: list[tuple[int, ...]] = []
    partial: list[int] = []

    def extend(start: int) -> None:
        i = len(partial)
        if i == size:
            autos.append(tuple(partial))
            return
        for j in range(start, size):
            if colors[j] == colors[i]:
                partial.append(j)
                extend(j + 1)
                partial.pop()

    extend(0)
    return autos


def is_finite_homogeneous(o: FiniteColoredOrdering, cap: int = HOMOGENEITY_CAP) -> bool:
    """Brute-force homogeneity of an explicit finite colored ordering.

    Every pair of same-colored subsequences must extend to an automorphism.
    Equivalent to all colors being pairwise distinct; the equivalence is a
    tested property, not something this function assumes.
    """
    size = len(o.colors)
    if size > cap:
        raise BruteForceCapError(size, cap)
    autos = _automorphisms(o)
    indices = range(size)
    for length in range(size + 1):
        subsequences = list(itertools.combinations(indices, length))
        for s, t in itertools.product(subsequences, repeat=2):
            if any(o.colors[a] != o.colors[b] for a, b in zip(s, t)):
                continue  # not isomorphic as colored suborders
            if not any(all(sigma[a] == b for a, b in zip(s, t)) for sigma in autos):
                return False
    return True
