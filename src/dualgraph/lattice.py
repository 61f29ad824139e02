"""Discriminants, definiteness, and lattice invariants of vertex selections.

The discriminant of a selection is det(-Q) where Q is its intersection
matrix; the empty selection has discriminant 1.  Everything is exact.

Each function reads its selection as its induced graph.  On a forest one
leaves-first pass gives both the discriminant (the splitting rule, i.e.
the plumbing-tree determinant recursion) and the inertia of Q (tree pivot
counting after Jacobs-Trevisan), in linear ring operations on plain ints.
The pass notices a cycle or a parallel edge on its own walk; such graphs
take the sparse congruence pass, the same elimination on the adjacency
itself in exact rationals, with one pivot kind: where every diagonal is
zero, a row addition of determinant 1 makes one nonzero first.  No
determinant or inertia builds the dense matrix.  The
Smith invariant factors come from a sparse pass over the integers that
pivots on the unit entries of Q, on every graph alike; the dense Smith
normal form sees only the small square residue that has no unit left.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import prod
from typing import Optional, Tuple

from .errors import NotAForest
from .graph import Selection, WeightedGraph, _walk, classify_shape, induced_graph
from .intmat import smith_normal_form

NEGATIVE_DEFINITE = "negative-definite"
NEGATIVE_SEMIDEFINITE = "negative-semidefinite"
INDEFINITE = "indefinite"
EMPTY = "empty"

def _forest_pass(g: WeightedGraph, inertia: bool = False):
    """(det(-Q), inertia of Q or None) of a forest; None on a cycle.

    Each tree is rooted at its first vertex and walked breadth first
    (graph._walk), one root per component: more than V - C edges on V
    vertices in C components means a cycle or a parallel edge, and the
    pass returns None.

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
    order, parent = _walk(g)
    roots = sum(p is None for p in parent.values())
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


def _unit_pivots(g: WeightedGraph):
    """(ones, residue): Q is equivalent over Z to I_ones (+) residue, and
    the square residue holds no entry +-1.

    Sparse elimination on the adjacency in plain ints, indexed by vertex
    position: row[i] maps each column to its nonzero entry of Q (the
    weight on the diagonal, the edge multiplicity off it, later the fill),
    and col mirrors it.  Each step takes the shortest row r that holds a
    unit a = q_rc (a lazy heap keyed by row length) and, in it, the unit
    whose column is shortest (Markowitz), deletes row r and column c, and
    updates every other q_ij -= q_ic a q_rj, since 1/a = a.  That is a
    unimodular row and column operation, so the invariant factors of Q are
    a 1 per pivot followed by those of the rest (Dumas, Saunders and
    Villard, J. Symb. Comp. 32, 2001).  On a tree it is the Tietze move of
    Neumann's plumbing calculus.  A chain or a cycle fills O(1) per step
    and leaves at most 1 or 2 rows; a star keeps one row fewer than it
    has leaves.
    """
    idx = g._positions()
    n = len(idx)
    row = [{} for _ in range(n)]
    col = [{} for _ in range(n)]
    for i, v in enumerate(g.vertices):
        w = g.weight(v)
        if w:
            row[i][i] = col[i][i] = w
    for a, b in g.edges:
        i, j = idx[a], idx[b]
        row[i][j] = row[j][i] = col[j][i] = col[i][j] = row[i].get(j, 0) + 1
    heap = [(len(r), i) for i, r in enumerate(row)]
    heapify(heap)
    ones = 0
    while heap:
        k, r = heappop(heap)
        if row[r] is None or len(row[r]) != k:
            continue  # stale: a changed row was pushed again
        units = [c for c, x in row[r].items() if x in (1, -1)]
        if not units:
            continue  # pushed again once an update changes it
        c = min(units, key=lambda j: len(col[j]))
        pivot_row, pivot_col = row[r], col[c]
        for j in pivot_row:
            del col[j][r]
        for i in pivot_col:
            del row[i][c]
        a = pivot_row.pop(c)
        for i, x in pivot_col.items():
            ri = row[i]
            for j, y in pivot_row.items():
                q = ri.get(j, 0) - x * a * y
                if q:
                    ri[j] = col[j][i] = q
                elif j in ri:
                    del ri[j], col[j][i]
            heappush(heap, (len(ri), i))
        row[r] = col[c] = None
        ones += 1
    cols = [j for j in range(n) if col[j] is not None]
    return ones, [[r.get(j, 0) for j in cols] for r in row if r is not None]


def _congruence_pass(g: WeightedGraph):
    """(det(-Q), inertia of Q) of any graph, by sparse symmetric elimination.

    The elimination reads the adjacency of g, never the dense matrix: row v
    maps each neighbour to its entry of Q (the edge multiplicity, later
    the fill), and only nonzero entries are kept.  Each step pivots on one
    live vertex v with p = q_vv != 0, which gives det(-Q) the factor -p and
    the inertia the sign of p, and replaces the rest by its Schur
    complement q_ij -= q_iv q_vj / p; by Sylvester's law of inertia that
    carries the remaining inertia.  One lazy heap keyed by (zero diagonal,
    degree, vertex) picks v:

    - a vertex with a nonzero diagonal and the fewest neighbours;
    - when every live diagonal is zero, the vertex v with the fewest
      neighbours and its neighbour w with the fewest: the congruence
      e_v -> e_v + e_w, of determinant 1, adds row w into row v and sets
      q_vv = 2 q_vw, since q_vv = q_ww = 0 before (the classical step for
      symmetric forms in characteristic not 2, Lam ch. I);
    - a vertex with a zero diagonal and no neighbours left is a zero
      eigenvalue.

    On a tree the fewest-neighbours rule takes leaves first and fills
    nothing, as the forest pass does; on a cycle no pivot has more than
    three neighbours.  Both cost O(V log V) steps on exact rationals.
    """
    from fractions import Fraction  # imported here: only graphs with cycles need it

    diag = {v: Fraction(g.weight(v)) for v in g.vertices}
    row = {v: {} for v in g.vertices}
    for a, b in g.edges:
        row[a][b] = row[b][a] = row[a].get(b, 0) + 1
    heap = [(diag[v] == 0, len(row[v]), v) for v in g.vertices]
    heapify(heap)
    d, plus, zero, minus = 1, 0, 0, 0
    while heap:
        z, k, v = heappop(heap)
        if v not in row or len(row[v]) != k or (diag[v] == 0) != z:
            continue  # stale: a changed vertex was pushed again
        p, col = diag.pop(v), row.pop(v)
        for u in col:
            del row[u][v]
        if z and col:  # every live diagonal is zero
            w = min(col, key=lambda u: len(row[u]))
            p = Fraction(2 * col[w])
            for u, x in row[w].items():
                col[u] = col.get(u, 0) + x
        if not p:
            d, zero = 0, zero + 1
            continue
        d *= -p
        if p > 0:
            plus += 1
        else:
            minus += 1
        fill = [(u, x) for u, x in col.items() if x]
        for n, (i, x) in enumerate(fill):
            diag[i] -= x * x / p
            for j, y in fill[n + 1:]:
                q = row[i].get(j, 0) - x * y / p
                if q:
                    row[i][j] = row[j][i] = q
                elif j in row[i]:
                    del row[i][j], row[j][i]
        for u in col:  # each lost its entry v; w's neighbours too
            heappush(heap, (diag[u] == 0, len(row[u]), u))
    return int(d), (plus, zero, minus)


def discriminant(g: WeightedGraph, selection: Selection = None) -> int:
    """det(-Q) of the selection, exactly; 1 for the empty selection.

    Forests take the leaves-first pass; a cycle or a parallel edge takes
    the sparse congruence pass.
    """
    g = induced_graph(g, selection)
    tree = _forest_pass(g)
    if tree is not None:
        return tree[0]
    return _congruence_pass(g)[0]


def discriminant_by_splitting(g: WeightedGraph, selection: Selection = None) -> int:
    """Discriminant of a forest selection by the splitting rule.

    For adjacent trees T1 (containing the edge's vertex c1) and T2
    (containing c2), the discriminant of the union satisfies

        d(T1 + T2) = d(T1) d(T2) - d(T1 - c1) d(T2 - c2)

    and disjoint pieces multiply.  This is the forest pass behind
    discriminant, without the congruence pass that discriminant takes on a
    cycle: only ring operations are used, no division, no elimination, no
    recursion, so it works verbatim on symbolic weights.  A cycle or a
    parallel edge raises NotAForest.
    """
    tree = _forest_pass(induced_graph(g, selection))
    if tree is None:
        raise NotAForest("the splitting rule needs a forest selection")
    return tree[0]


def _discriminant_and_inertia(g: WeightedGraph):
    """(det(-Q), inertia of Q): the forest pass, else the congruence pass."""
    tree = _forest_pass(g, inertia=True)
    if tree is not None:
        return tree
    return _congruence_pass(g)


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
    cycle from the sparse congruence pass.  The invariant factors are a 1
    for each unit pivot, then the dense Smith normal form of the unit-free
    residue; invariant factors are unique, so this is the Smith form of Q.
    When the discriminant is nonzero, the product of the invariant factors
    equals its absolute value (the order of the cokernel of Q).
    """
    g = induced_graph(g, selection)
    d, inertia = _discriminant_and_inertia(g)
    ones, residue = _unit_pivots(g)
    factors = (1,) * ones + tuple(smith_normal_form(residue))
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
            twigs = tuple(sorted(discriminant(rest, c) for c in comps))
            return QuotientTypeReport(True, "fork", twigs, has_m1)
    return QuotientTypeReport(False, None, None, has_m1)
