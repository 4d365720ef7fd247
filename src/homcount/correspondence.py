"""Computable maps between models and descriptions, plus the block-kind classifier.

A description is made of the model's own points over block kinds, and a finite
kind is its size, so color i and the block of size i are the same label. A
constrained model therefore expands into an ordering description that is its
own tuple of points: an R-point of color i is a singleton block of size i, an
S-point with color set A a shuffle of the blocks sized by A. An unconstrained
model expands into a colored description, which is also the model's own tuple
of points (no adjacency rules, no k). Both expansions are the identity on
points after validation, and contraction is the exact inverse: validation, the
range rule, and the model of the same points. Both contractions are one body,
_contract, which reads the points into a tuple once, so a one-shot iterator
gives the same model as a tuple. It decides, then diagnoses, as the validators
do: model._decide, bounded by k, checks validity and the range on one flat
label list, and a description it admits becomes the model by tuple.__new__.
Only a refused one is validated and range-checked to name what is wrong. Label
sets are stored in canonical order (kinds by kind_key, colors ascending), so
contraction names the first out-of-range label in points order and then in
stored order, and the message is the same on every run. A kind is named by its
wire encoding as Python prints it: {'finite': 3}, omega.

classify_cnm decides whether a description stays homogeneous when the language
keeps predicates for n successors, m predecessors, and distances below n+m:
with both parameters finite only blocks of size up to n+m+1 survive; an
infinite successor budget kills no omega* blocks and vice versa; zeta blocks
need at least one infinite side. It reads its points once too.

is_finite_homogeneous decides homogeneity of an explicit finite colored
ordering, a tuple of colors, by the one-point extension (back-and-forth)
criterion (W. Hodges, Model Theory, 1993, section 7.1), the gap rule that its
docstring states. It does not assume that a finite linear order only has the
identity automorphism, so the reduction "homogeneous iff all colors distinct"
stays a tested fact.
"""

from __future__ import annotations

import itertools
import math
from typing import Union

from homcount.combinatorics import boolean, nonnegative
from homcount.model import (
    BlockKind,
    ColoredDescription,
    FiniteColoredOrdering,
    MulticoloredModel,
    OMEGA,
    OMEGA_STAR,
    OrderingDescription,
    ValidationReport,
    _decide,
    kind_to_json,
    validate_colored_description,
    validate_description,
    validate_model,
)

HOMOGENEITY_CAP = 8  # the most points is_finite_homogeneous takes: 2^8 subsequences

ExtendedNat = Union[int, float]  # a natural number or math.inf


class InvalidStructureError(ValueError):
    """An input model or description failed validation; carries the report."""

    def __init__(self, what: str, report: ValidationReport):
        self.report = report
        first = report.violations[0]
        super().__init__(f"invalid {what}: {first.axiom}: {first.message}")


def _require(report: ValidationReport, what: str) -> None:
    if not report.ok:
        raise InvalidStructureError(what, report)


def expand_model(m: MulticoloredModel) -> OrderingDescription:
    """Constrained model -> ordering description (color i <-> block size i)."""
    if not boolean(m.adjacency_constrained, "adjacency_constrained"):
        raise ValueError("expand_model expects an adjacency-constrained model")
    _require(validate_model(m), "model")
    return m.points


def _contract(d, k: int, constrained: bool) -> MulticoloredModel:
    """The model of the points of d, read once; refused unless valid with every label an int in 1..k."""
    nonnegative(k, "k")
    points = tuple(d)
    if not _decide(points, not constrained, 1, k):
        report = validate_description(points) if constrained else validate_colored_description(points)
        _require(report, "description" if constrained else "colored description")
        for p in points:
            for c in p.colors:  # after validation, a label is an int >= 1 or an infinite kind
                if type(c) is not int or not 1 <= c <= k:
                    if constrained:
                        raise ValueError(f"description not in finite-label range: kind {kind_to_json(c)} with k={k}")
                    raise ValueError(f"color {c} outside 1..{k}")
    return tuple.__new__(MulticoloredModel, (k, points, constrained))


def contract_description(d: OrderingDescription, k: int) -> MulticoloredModel:
    """Exact inverse of expand_model; every kind must be finite with size <= k."""
    return _contract(d, k, True)


def expand_colored(m: MulticoloredModel) -> ColoredDescription:
    """Unconstrained model -> colored description: the same points, without k."""
    if boolean(m.adjacency_constrained, "adjacency_constrained"):
        raise ValueError("expand_colored expects an adjacency-unconstrained model")
    _require(validate_model(m), "model")
    return m.points


def contract_colored(d: ColoredDescription, k: int) -> MulticoloredModel:
    """Exact inverse of expand_colored."""
    return _contract(d, k, False)


def _kind_permitted(kind: BlockKind, n: ExtendedNat, m: ExtendedNat) -> bool:
    if type(kind) is int:
        return kind <= n + m + 1
    if kind is OMEGA:
        return m == math.inf
    if kind is OMEGA_STAR:
        return n == math.inf
    return n == math.inf or m == math.inf  # ZETA; validation refuses every other label


def classify_cnm(d: OrderingDescription, n: ExtendedNat, m: ExtendedNat) -> bool:
    """Whether every block kind in d survives successor/predecessor budgets (n, m),
    each math.inf or an int >= 0 under combinatorics.nonnegative's rule."""
    for budget, name in ((n, "n"), (m, "m")):
        if budget != math.inf:
            nonnegative(budget, name)
    points = tuple(d)
    _require(validate_description(points), "description")
    return all(_kind_permitted(kind, n, m) for p in points for kind in p.colors)


def is_finite_homogeneous(o: FiniteColoredOrdering) -> bool:
    """Homogeneity of an explicit finite colored ordering, by one-point extension.

    Every map between two subsequences of one color sequence must extend to an
    automorphism. It extends by one point, forth and back, iff each gap of its
    domain holds the same colors as the matching gap of its image; extended
    forth until its domain is every point, it is an automorphism. So o is
    homogeneous iff all its subsequences of one color sequence have equal gap
    colors. Equivalent to all colors being pairwise distinct; the equivalence
    is a tested property, not something this function assumes. An ordering of
    more than HOMOGENEITY_CAP points is refused with a ValueError.
    """
    size = len(o)
    if size > HOMOGENEITY_CAP:
        raise ValueError(f"is_finite_homogeneous takes at most {HOMOGENEITY_CAP} points, got {size}")
    gaps_of: dict = {}  # color sequence -> the gap colors of its first subsequence
    for length in range(size + 1):
        for s in itertools.combinations(range(size), length):
            cuts = (-1, *s, size)
            gaps = tuple(frozenset(o[a + 1:b]) for a, b in zip(cuts, cuts[1:]))
            if gaps_of.setdefault(tuple(o[i] for i in s), gaps) != gaps:
                return False
    return True
