"""Computable maps between models and descriptions, plus the block-kind classifier.

A description is made of the model's own points over block kinds, and a finite
kind is its size, so color i and the block of size i are the same label. A
constrained model therefore expands into an ordering description that is its
own tuple of points: an R-point of color i is a singleton block of size i, an
S-point with color set A a shuffle of the blocks sized by A. An unconstrained
model expands into a colored description, which is also the model's own tuple
of points (no adjacency rules, no k). Both expansions are the identity on
points after validation, and contraction is the exact inverse: validation, the
range rule, and the model of the same points. Contraction decides, then
diagnoses, as the validators do: model._decide, bounded by k, checks validity
and the range on one flat label list, and a description it admits becomes the
model by tuple.__new__. Only a refused one is validated and range-checked to
name what is wrong. Label sets are stored in canonical order (kinds by
kind_key, colors ascending), so contraction names the first out-of-range label
in points order and then in stored order, and the message is the same on every
run; a kind is named in its wire encoding.

classify_cnm decides whether a description stays homogeneous when the language
keeps predicates for n successors, m predecessors, and distances below n+m:
with both parameters finite only blocks of size up to n+m+1 survive; an
infinite successor budget kills no omega* blocks and vice versa; zeta blocks
need at least one infinite side.

is_finite_homogeneous is the brute-force oracle on explicit finite colored
orderings, each a tuple of colors: it searches the full automorphism extension
space rather than assuming that a finite linear order only has the identity
automorphism, so the reduction "homogeneous iff all colors distinct" stays a
tested fact.
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

HOMOGENEITY_CAP = 8  # the most points is_finite_homogeneous searches

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


def contract_description(d: OrderingDescription, k: int) -> MulticoloredModel:
    """Exact inverse of expand_model; every kind must be finite with size <= k."""
    nonnegative(k, "k")
    if not _decide(d, False, 1, k):
        _require(validate_description(d), "description")
        for p in d:
            for kind in p.colors:
                if type(kind) is not int or kind > k:
                    raise ValueError(f"description not in finite-label range: kind {kind_to_json(kind)} with k={k}")
    return tuple.__new__(MulticoloredModel, (k, tuple(d), True))


def expand_colored(m: MulticoloredModel) -> ColoredDescription:
    """Unconstrained model -> colored description: the same points, without k."""
    if boolean(m.adjacency_constrained, "adjacency_constrained"):
        raise ValueError("expand_colored expects an adjacency-unconstrained model")
    _require(validate_model(m), "model")
    return m.points


def contract_colored(d: ColoredDescription, k: int) -> MulticoloredModel:
    """Exact inverse of expand_colored."""
    nonnegative(k, "k")
    if not _decide(d, True, 1, k):
        _require(validate_colored_description(d), "colored description")
        for p in d:
            for c in p.colors:
                if not 1 <= c <= k:  # validation refused every label that is no int
                    raise ValueError(f"color {c} outside 1..{k}")
    return tuple.__new__(MulticoloredModel, (k, tuple(d), False))


def _check_extended_nat(name: str, value: ExtendedNat) -> None:
    if value == math.inf or (type(value) is int and value >= 0):  # a bool is not a count
        return
    raise ValueError(f"{name} must be a nonnegative integer or math.inf, got {value!r}")


def _kind_permitted(kind: BlockKind, n: ExtendedNat, m: ExtendedNat) -> bool:
    if type(kind) is int:
        return kind <= n + m + 1
    if kind is OMEGA:
        return m == math.inf
    if kind is OMEGA_STAR:
        return n == math.inf
    return n == math.inf or m == math.inf  # ZETA; validation refuses every other label


def classify_cnm(d: OrderingDescription, n: ExtendedNat, m: ExtendedNat) -> bool:
    """Whether every block kind in d survives successor/predecessor budgets (n, m)."""
    _check_extended_nat("n", n)
    _check_extended_nat("m", m)
    _require(validate_description(d), "description")
    return all(_kind_permitted(kind, n, m) for p in d for kind in p.colors)


def _automorphisms(o: FiniteColoredOrdering) -> list[tuple[int, ...]]:
    """All order- and color-preserving self-bijections, found exhaustively.

    A backtracking search extends a partial map position by position, each to
    a strictly later position of the same color, and keeps every map that
    completes: exactly the permutations of range(size) that are increasing
    and color-preserving, in lexicographic order.
    """
    size = len(o)
    autos: list[tuple[int, ...]] = []
    partial: list[int] = []

    def extend(start: int) -> None:
        i = len(partial)
        if i == size:
            autos.append(tuple(partial))
            return
        for j in range(start, size):
            if o[j] == o[i]:
                partial.append(j)
                extend(j + 1)
                partial.pop()

    extend(0)
    return autos


def is_finite_homogeneous(o: FiniteColoredOrdering) -> bool:
    """Brute-force homogeneity of an explicit finite colored ordering.

    Every pair of same-colored subsequences must extend to an automorphism.
    Equivalent to all colors being pairwise distinct; the equivalence is a
    tested property, not something this function assumes. An ordering of more
    than HOMOGENEITY_CAP points is refused with a ValueError.
    """
    size = len(o)
    if size > HOMOGENEITY_CAP:
        raise ValueError(f"is_finite_homogeneous searches at most {HOMOGENEITY_CAP} points, got {size}")
    autos = _automorphisms(o)
    indices = range(size)
    for length in range(size + 1):
        subsequences = list(itertools.combinations(indices, length))
        for s, t in itertools.product(subsequences, repeat=2):
            if any(o[a] != o[b] for a, b in zip(s, t)):
                continue  # not isomorphic as colored suborders
            if not any(all(sigma[a] == b for a, b in zip(s, t)) for sigma in autos):
                return False
    return True
