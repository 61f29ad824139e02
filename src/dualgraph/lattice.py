"""Discriminants, definiteness, and lattice invariants of vertex selections.

The discriminant of a selection is det(-Q) where Q is its intersection
matrix; the empty selection has discriminant 1.  Everything is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import NotAForest
from .graph import Selection, WeightedGraph, classify_shape, intersection_matrix, subdivisor
from .intmat import det_bareiss, principal_minor_sums, smith_normal_form, symmetric_signature

NEGATIVE_DEFINITE = "negative-definite"
NEGATIVE_SEMIDEFINITE = "negative-semidefinite"
INDEFINITE = "indefinite"
EMPTY = "empty"


def discriminant(g: WeightedGraph, selection: Selection = None) -> int:
    """det(-Q) of the selection, exactly; 1 for the empty selection."""
    q = intersection_matrix(g, selection)
    return det_bareiss([[-x for x in row] for row in q])


def discriminant_by_splitting(g: WeightedGraph, selection: Selection = None) -> int:
    """Discriminant of a forest selection by the splitting rule.

    For adjacent trees T1 (containing the edge's vertex c1) and T2
    (containing c2), the discriminant of the union satisfies

        d(T1 + T2) = d(T1) d(T2) - d(T1 - c1) d(T2 - c2)

    and disjoint pieces multiply.  Each tree is rooted at its first vertex
    and its edges are split off leaves first, carrying (d(T_v), d(T_v - v))
    for the subtree T_v under each vertex v, starting from (-weight, 1).
    Only ring operations are used: no division, no elimination, no
    recursion.  Works verbatim on symbolic weights.
    """
    s = subdivisor(g, selection)
    shape = classify_shape(g, s)
    if not shape.is_forest:
        raise NotAForest("the splitting rule needs a forest selection")
    total = 1
    for comp in shape.components:
        root = comp[0]
        parent = {root: root}
        order = [root]
        for v in order:
            for u in s.neighbors(v):
                if u not in parent:
                    parent[u] = v
                    order.append(u)
        whole = {v: -g.weight(v) for v in comp}
        pruned = dict.fromkeys(comp, 1)
        for v in reversed(order[1:]):
            p = parent[v]
            whole[p], pruned[p] = (whole[p] * whole[v] - pruned[p] * pruned[v],
                                   pruned[p] * whole[v])
        total *= whole[root]
    return total


def definiteness(g: WeightedGraph, selection: Selection = None) -> str:
    """Classify Q as negative-definite / -semidefinite / indefinite / empty.

    Exact: the sums e_k of k x k principal minors of -Q are all positive
    iff -Q is positive definite, and all nonnegative iff it is positive
    semidefinite.
    """
    q = intersection_matrix(g, selection)
    if not q:
        return EMPTY
    sums = principal_minor_sums([[-x for x in row] for row in q])
    if all(e > 0 for e in sums):
        return NEGATIVE_DEFINITE
    if all(e >= 0 for e in sums):
        return NEGATIVE_SEMIDEFINITE
    return INDEFINITE


def signature(g: WeightedGraph, selection: Selection = None) -> Tuple[int, int, int]:
    """Inertia (positive, zero, negative) of the intersection matrix."""
    return symmetric_signature(intersection_matrix(g, selection))


@dataclass(frozen=True)
class LatticeInvariants:
    discriminant: int
    invariant_factors: Tuple[int, ...]
    definiteness: str
    torsion_order: Optional[int]  # product of invariant factors; None when d = 0


def smith_invariants(g: WeightedGraph, selection: Selection = None) -> LatticeInvariants:
    """Discriminant, Smith invariant factors, and definiteness of a selection.

    When the discriminant is nonzero, the product of the invariant factors
    equals its absolute value (the order of the cokernel of Q).
    """
    q = intersection_matrix(g, selection)
    d = det_bareiss([[-x for x in row] for row in q])
    factors = tuple(smith_normal_form(q))
    order: Optional[int] = None
    if d != 0:
        order = 1
        for f in factors:
            order *= f
    return LatticeInvariants(d, factors, definiteness(g, selection), order)


@dataclass(frozen=True)
class QuotientTypeReport:
    """Contractibility-to-a-quotient-singularity test data.

    ok is true iff the selection is negative definite and shaped as a chain
    or a fork (a tree with exactly one branch vertex, of degree 3).  For a
    fork, twig_discriminants carries the sorted discriminant triple of the
    three arms.  has_minus_one flags weight -1 vertices; a minimal
    configuration of this kind must not contain any.
    """

    ok: bool
    kind: Optional[str]  # "cyclic" (chain) or "fork"
    twig_discriminants: Optional[Tuple[int, int, int]]
    has_minus_one: bool


def is_quotient_type(g: WeightedGraph, selection: Selection = None) -> QuotientTypeReport:
    s = subdivisor(g, selection)
    has_m1 = any(g.weight(v) == -1 for v in s.order())
    if definiteness(g, s) != NEGATIVE_DEFINITE:
        return QuotientTypeReport(False, None, None, has_m1)
    shape = classify_shape(g, s)
    if shape.is_chain:
        return QuotientTypeReport(True, "cyclic", None, has_m1)
    if shape.is_tree and len(shape.branching) == 1:
        center = shape.branching[0]
        if s.degree(center) == 3:
            rest = subdivisor(g, s.selected - {center})
            comps = classify_shape(g, rest).components
            if len(comps) == 3:
                twigs = tuple(sorted(discriminant(g, c) for c in comps))
                return QuotientTypeReport(True, "fork", twigs, has_m1)
    return QuotientTypeReport(False, None, None, has_m1)
