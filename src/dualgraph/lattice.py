"""Discriminants, definiteness, and lattice invariants of vertex selections.

The discriminant of a selection is det(-Q) where Q is its intersection
matrix; the empty selection has discriminant 1.  Everything is exact.

Each function reads its selection as its induced graph.  On a forest one
leaves-first pass gives both the discriminant (the splitting rule, i.e.
the plumbing-tree determinant recursion) and the inertia of Q (tree pivot
counting after Jacobs-Trevisan), in linear ring operations on plain ints.
The pass notices a cycle or a parallel edge on its own walk; such graphs
fall back to the dense kernels, Bareiss for the determinant and Berkowitz
for the inertia.  The Smith normal form is always dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional, Tuple

from .errors import NotAForest
from .graph import Selection, WeightedGraph, classify_shape, induced_graph, intersection_matrix
from .intmat import charpoly, charpoly_inertia, det_bareiss, smith_normal_form

NEGATIVE_DEFINITE = "negative-definite"
NEGATIVE_SEMIDEFINITE = "negative-semidefinite"
INDEFINITE = "indefinite"
EMPTY = "empty"

def _forest_pass(g: WeightedGraph, inertia: bool = False):
    """(det(-Q), inertia of Q or None) of a forest; None on a cycle.

    Each tree is rooted at its first vertex and walked breadth first.  The
    walk counts the components: more than V - C edges on V vertices in C
    components means a cycle or a parallel edge, and the pass returns None.

    Then, leaves first, each vertex v carries the pair (d_v, e_v) =
    (d(T_v), d(T_v - v)) of its subtree T_v, starting from (-weight, 1),
    and folds into its parent p by the splitting rule

        (d_p, e_p) <- (d_p d_v - e_p e_v, e_p d_v).

    The pivot of -Q at v, once T_v - v is eliminated, is d_v / e_v, and
    e_v is a product of nonzero d's.  A child j with d_j = 0 triggers the
    zero-child rule of Jacobs-Trevisan: j and p span a block of inertia
    (1, 0, 1), p leaves its own parent, and p's other children keep their
    pivots.  The subtree of p then has determinant -e_j times the d of
    p's other children, which e_p accumulates; the determinant of the
    forest is the product of these and of the roots' d.  With inertia
    False no sign is tested, so the weights may lie in any commutative
    ring.
    """
    neighbors = g.neighbors
    parent = {}
    order = []
    roots = i = 0
    for root in g.vertices:
        if root in parent:
            continue
        parent[root] = None
        order.append(root)
        roots += 1
        while i < len(order):
            v = order[i]
            i += 1
            for u in neighbors(v):
                if u not in parent:
                    parent[u] = v
                    order.append(u)
    if len(g.edges) != len(order) - roots:
        return None
    whole = {v: -g.weight(v) for v in order}
    pruned = dict.fromkeys(order, 1)
    paired = set()
    d = 1
    pairs = plus = zero = minus = 0
    for v in reversed(order):
        t, e = whole[v], pruned[v]
        if v in paired:
            d *= e
            continue
        p = parent[v]
        if p is not None and p not in paired and t == 0:
            paired.add(p)
            pruned[p] *= -e
            pairs += 1
            continue
        if inertia:  # v's pivot t / e of -Q is final
            if t == 0:
                zero += 1
            elif (t > 0) == (e > 0):
                minus += 1
            else:
                plus += 1
        if p is None:
            d *= t
        elif p in paired:
            pruned[p] *= t
        else:
            whole[p], pruned[p] = whole[p] * t - pruned[p] * e, pruned[p] * t
    return d, ((plus + pairs, zero, minus + pairs) if inertia else None)


def discriminant(g: WeightedGraph, selection: Selection = None) -> int:
    """det(-Q) of the selection, exactly; 1 for the empty selection.

    Forests take the leaves-first pass; a cycle or a parallel edge takes
    the dense Bareiss determinant.
    """
    g = induced_graph(g, selection)
    tree = _forest_pass(g)
    if tree is not None:
        return tree[0]
    return det_bareiss([[-x for x in row] for row in intersection_matrix(g)])


def discriminant_by_splitting(g: WeightedGraph, selection: Selection = None) -> int:
    """Discriminant of a forest selection by the splitting rule.

    For adjacent trees T1 (containing the edge's vertex c1) and T2
    (containing c2), the discriminant of the union satisfies

        d(T1 + T2) = d(T1) d(T2) - d(T1 - c1) d(T2 - c2)

    and disjoint pieces multiply.  This is the forest pass behind
    discriminant, without its dense fallback: only ring operations are
    used, no division, no elimination, no recursion, so it works verbatim
    on symbolic weights.  A cycle or a parallel edge raises NotAForest.
    """
    tree = _forest_pass(induced_graph(g, selection))
    if tree is None:
        raise NotAForest("the splitting rule needs a forest selection")
    return tree[0]


def _discriminant_and_inertia(g: WeightedGraph):
    """(det(-Q), inertia of Q): the forest pass, else one Berkowitz charpoly.

    The charpoly's constant term is det(0*I - Q) = det(-Q).
    """
    tree = _forest_pass(g, inertia=True)
    if tree is not None:
        return tree
    c = charpoly(intersection_matrix(g))
    return c[-1], charpoly_inertia(c)


def definiteness(g: WeightedGraph, selection: Selection = None) -> str:
    """Classify Q as negative-definite / -semidefinite / indefinite / empty.

    Read off the exact inertia: any positive eigenvalue makes Q indefinite,
    otherwise any zero eigenvalue makes it semidefinite.
    """
    return _definiteness_of(signature(g, selection))


def _definiteness_of(inertia: Tuple[int, int, int]) -> str:
    plus, zero, minus = inertia
    if plus + zero + minus == 0:
        return EMPTY
    if plus:
        return INDEFINITE
    return NEGATIVE_SEMIDEFINITE if zero else NEGATIVE_DEFINITE


def signature(g: WeightedGraph, selection: Selection = None) -> Tuple[int, int, int]:
    """Inertia (positive, zero, negative) of the intersection matrix."""
    return _discriminant_and_inertia(induced_graph(g, selection))[1]


@dataclass(frozen=True)
class LatticeInvariants:
    discriminant: int
    invariant_factors: Tuple[int, ...]
    definiteness: str
    torsion_order: Optional[int]  # product of invariant factors; None when d = 0


def smith_invariants(g: WeightedGraph, selection: Selection = None) -> LatticeInvariants:
    """Discriminant, Smith invariant factors, and definiteness of a selection.

    The discriminant and the inertia come from the forest pass, or on a
    cycle from one characteristic polynomial of Q; the invariant factors
    from the dense Smith normal form.  When the discriminant is nonzero,
    the product of the invariant factors equals its absolute value (the
    order of the cokernel of Q).
    """
    g = induced_graph(g, selection)
    d, inertia = _discriminant_and_inertia(g)
    factors = tuple(smith_normal_form(intersection_matrix(g)))
    return LatticeInvariants(d, factors, _definiteness_of(inertia),
                             prod(factors) if d else None)


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
    g = induced_graph(g, selection)
    has_m1 = any(g.weight(v) == -1 for v in g.vertices)
    if definiteness(g) != NEGATIVE_DEFINITE:
        return QuotientTypeReport(False, None, None, has_m1)
    shape = classify_shape(g)
    if shape.is_chain:
        return QuotientTypeReport(True, "cyclic", None, has_m1)
    if shape.is_tree and len(shape.branching) == 1:
        center = shape.branching[0]
        if g.degree(center) == 3:
            rest = induced_graph(g, [v for v in g.vertices if v != center])
            comps = classify_shape(rest).components
            if len(comps) == 3:
                twigs = tuple(sorted(discriminant(rest, c) for c in comps))
                return QuotientTypeReport(True, "fork", twigs, has_m1)
    return QuotientTypeReport(False, None, None, has_m1)
