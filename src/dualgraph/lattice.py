"""Discriminants, definiteness, and lattice invariants of vertex selections.

The discriminant of a selection is det(-Q) where Q is its intersection
matrix; the empty selection has discriminant 1.  Everything is exact.

Each function reads its selection as its induced graph.  On a forest one
leaves-first pass gives both the discriminant (the splitting rule, i.e.
the plumbing-tree determinant recursion) and the inertia of Q (tree pivot
counting after Jacobs-Trevisan), in linear ring operations on plain ints.
The pass notices a cycle or a parallel edge on its own walk; such graphs
take the sparse congruence pass, the same elimination on the adjacency
itself, fraction-free on plain ints (Bareiss), so each division it makes
is exact.  Along a path whose order is known, _continuant gives the
discriminant in one pass over the weights.  The Smith invariant factors
come from intmat.sparse_smith_form on the sparse rows of Q, on every graph
alike; it builds its own column mirror.  Nothing here builds the dense
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import prod
from typing import Iterable, Optional, Tuple

from .errors import NotAForest
from .graph import (Selection, WeightedGraph, _walk, classify_shape, induced_graph,
                    intersection_rows)
from .intmat import sparse_smith_form

NEGATIVE_DEFINITE = "negative-definite"
NEGATIVE_SEMIDEFINITE = "negative-semidefinite"
INDEFINITE = "indefinite"
EMPTY = "empty"


def _continuant(weights: Iterable[int]) -> int:
    """det(-Q) of a chain whose weights, in path order, are weights: the
    continuant of the negated weights, 1 for no weights."""
    before, d = 0, 1
    for w in weights:
        before, d = d, -w * d - before
    return d


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
    order, parent = _walk(g._index())
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


def _congruence_pass(g: WeightedGraph):
    """(det(-Q), inertia of Q) of any graph, by sparse symmetric elimination.

    The elimination reads the adjacency of g, never the dense matrix: row v
    maps each neighbour to its entry (the edge multiplicity, later the
    fill), and only nonzero entries are kept.  Each step pivots on one live
    vertex v whose Schur complement entry s = S_vv is nonzero, which gives
    the inertia the sign of s, and replaces the rest by its Schur complement
    S_ij - S_iv S_vj / s; by Sylvester's law of inertia that carries the
    remaining inertia.  One lazy heap keyed by (zero diagonal and not a
    leaf, degree, vertex) picks v:

    - a vertex with a nonzero diagonal, or a zero leaf, with the fewest
      neighbours.  A zero leaf v on h with S_vh = a spans the block
      [[0, a], [a, S_hh]] of inertia (1, 0, 1) and determinant -a^2; the
      h-h entry of its inverse is 0, so deleting v and h fills nothing (the
      zero-child rule of the forest pass);
    - when every live diagonal is zero, the vertex v with the fewest
      neighbours and its neighbour w with the fewest: the congruence
      e_v -> e_v + e_w, of determinant 1, adds row w into row v and sets
      S_vv = 2 S_vw, since S_vv = S_ww = 0 before (the classical step for
      symmetric forms in characteristic not 2, Lam ch. I);
    - a vertex with a zero diagonal and no neighbours left is a zero
      eigenvalue.

    The pass runs on plain ints (Bareiss, Math. Comp. 22, 1968).  Let D be
    the determinant of the block eliminated so far, 1 at the start.  By
    Sylvester's determinant identity D S_ij is the minor of Q (after the
    row additions, which are integral) that borders that block with row i
    and column j, so M = D S is an integer matrix.  A pivot P = M_vv makes
    the block's determinant P, and _bareiss_step writes the new entries
    among v's neighbours as (P M_ij - M_iv M_vj) / D, integer minors again,
    so every division is exact.  A zero-leaf block makes it
    D (-a^2) = -M_vh^2 / D.  An entry that no step touches keeps its S, so
    it is not rewritten: each entry is stored with the D it was written at,
    its stamp, and read as m D / stamp, an exact division for the same
    reason.  The sign of s is that of P D, and at the end D is det Q, so
    det(-Q) is (-1)^V D, or 0 once a zero eigenvalue is seen.

    On a tree the fewest-neighbours rule takes leaves first and fills
    nothing, as the forest pass does; on a cycle no pivot has more than
    three neighbours.  Both cost O(V log V) steps.
    """
    diag = {v: (g.weight(v), 1) for v in g.vertices}
    row = {v: {} for v in g.vertices}
    for a, b in g.edges:
        row[a][b] = row[b][a] = (row[a].get(b, (0, 1))[0] + 1, 1)

    def key(u):
        return diag[u][0] == 0 and len(row[u]) != 1, len(row[u]), u

    heap = [key(v) for v in g.vertices]
    heapify(heap)
    d, plus, zero, minus = 1, 0, 0, 0
    while heap:
        z, k, v = heappop(heap)
        if v not in row or key(v) != (z, k, v):
            continue  # stale: a changed vertex was pushed again
        (p, s), col = diag.pop(v), row.pop(v)
        for u in col:
            del row[u][v]
        if not p and k == 1:  # a zero leaf on h: [[0, a], [a, x]] fills nothing
            (h, a), = col.items()
            del diag[h]
            col = row.pop(h)
            for u in col:
                del row[u][h]
            d, plus, minus = -_at(a, d) ** 2 // d, plus + 1, minus + 1
        elif not p and not col:
            zero += 1
        else:
            col = {u: _at(x, d) for u, x in col.items()}
            if p:
                p = _at((p, s), d)
            else:  # every live diagonal is zero
                w = min(col, key=lambda u: len(row[u]))
                p = 2 * col[w]
                for u, x in row[w].items():
                    col[u] = col.get(u, 0) + _at(x, d)
            if (p > 0) == (d > 0):
                plus += 1
            else:
                minus += 1
            _bareiss_step(diag, row, [(u, x) for u, x in col.items() if x], p, d)
            d = p
        for u in col:  # each lost an entry; h's or w's neighbours too
            heappush(heap, key(u))
    return (0 if zero else (-1) ** len(g) * d), (plus, zero, minus)


def _at(entry, d):
    """A stored (m, stamp) entry of M, read at the block determinant d."""
    m, s = entry
    return m if s == d else m * d // s


def _bareiss_step(diag, row, fill, p, d):
    """Eliminate one pivot P = p from the entries among its neighbours.

    fill lists each neighbour i of the pivot with its nonzero M_iv, read at
    the block determinant d.  Every pair i <= j of them gets
    M_ij <- (p M_ij - M_iv M_vj) / d, stamped p, the new block determinant;
    an entry that becomes 0 is dropped.
    """
    for n, (i, x) in enumerate(fill):
        m, s = diag[i]
        diag[i] = ((p * (m if s == d else m * d // s) - x * x) // d, p)
        ri = row[i]
        for j, y in fill[n + 1:]:
            m, s = ri.get(j, (0, d))
            q = (p * (m if s == d else m * d // s) - x * y) // d
            if q:
                ri[j] = row[j][i] = (q, p)
            elif j in ri:
                del ri[j], row[j][i]


def discriminant(g: WeightedGraph, selection: Selection = None) -> int:
    """det(-Q) of the selection, exactly; 1 for the empty selection.

    Read off _discriminant_and_inertia, as signature is: the forest pass,
    or on a cycle or a parallel edge the sparse congruence pass.
    """
    return _discriminant_and_inertia(induced_graph(g, selection))[0]


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
    cycle from the sparse congruence pass; the invariant factors from
    intmat.sparse_smith_form on graph.intersection_rows and the vertex
    count, which is all it needs to build its column mirror.  When the
    discriminant is nonzero, the product of the invariant factors equals
    its absolute value (the order of the cokernel of Q).
    """
    g = induced_graph(g, selection)
    d, inertia = _discriminant_and_inertia(g)
    factors = tuple(sparse_smith_form(intersection_rows(g), len(g)))
    return LatticeInvariants(d, factors, _definiteness_of(inertia),
                             prod(factors) if d else None)


@dataclass(frozen=True)
class QuotientTypeReport:
    """Contractibility-to-a-quotient-singularity test data.

    ok is true iff the selection is negative definite and shaped as a chain
    or a fork (a tree with exactly one branch vertex, of degree 3) whose
    twig discriminants d1, d2, d3 satisfy 1/d1 + 1/d2 + 1/d3 > 1 (Brieskorn,
    Invent. Math. 4, 1968): the platonic triples (2, 2, k), (2, 3, 3),
    (2, 3, 4) and (2, 3, 5).  For a negative definite fork, kind and
    twig_discriminants, the sorted discriminant triple of the three arms,
    are reported whether or not it passes.  has_minus_one flags weight -1
    vertices; a minimal configuration of this kind must not contain any.
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
            twigs = d1, d2, d3 = tuple(sorted(discriminant(rest, c) for c in comps))
            ok = d1 * d2 + d1 * d3 + d2 * d3 > d1 * d2 * d3
            return QuotientTypeReport(ok, "fork", twigs, has_m1)
    return QuotientTypeReport(False, None, None, has_m1)
