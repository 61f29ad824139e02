"""Birational rewriting on weighted graphs.

Two primitive moves.  blow_up(g, anchors) blows up a point on the curves
listed in anchors and inserts a fresh (-1)-vertex meeting each of them
once; each anchor's weight drops by 1, and with two anchors their edge is
replaced.  The anchors decide the move: none is a fresh point on no
tracked curve (spawn), one a free point of that curve (blow_up_free), two
their intersection point (blow_up_edge).  blow_down contracts a
non-branching (-1)-vertex and is the exact inverse.  Every applied move
yields a Move record carrying a complete structural patch, so a MoveLog
can be replayed forward or inverted exactly, restoring vertex ids and
canonical order bit for bit.

Composite operations: snc_minimalize (repeated contraction of unprotected
non-branching (-1)-vertices) and elementary_transformation (blow up on a
0-vertex, then blow the old vertex down).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from .errors import (
    NotMinusOne,
    NotSnc,
    NotZeroCurve,
    TooBranched,
    UnknownEdge,
)
from .graph import WeightedGraph, _norm_edge

BLOW_UP_FREE = "blow_up_free"
BLOW_UP_EDGE = "blow_up_edge"
BLOW_DOWN = "blow_down"
SPAWN = "spawn"

#: a blow-up's kind, indexed by the number of curves through its centre
BLOW_UP_KINDS = (SPAWN, BLOW_UP_FREE, BLOW_UP_EDGE)


def _blow_up_kind(anchors: Tuple[int, ...]) -> str:
    if len(anchors) >= len(BLOW_UP_KINDS):
        raise ValueError(f"a blow-up centre lies on at most two curves, got {anchors}")
    return BLOW_UP_KINDS[len(anchors)]


@dataclass(frozen=True)
class Move:
    """One structural patch.

    vertex is the id created (blow_up_*, spawn) or removed (blow_down).
    position is its index in the canonical vertex order, recorded so the
    inverse move can reinsert it exactly where it was.  anchors are the
    other vertices involved: the carrier for a free blow-up, the edge pair
    for an edge blow-up, the neighbors (with multiplicity) for a blow-down.
    """

    kind: str
    vertex: int
    position: int
    anchors: Tuple[int, ...] = ()

    def inverted(self) -> "Move":
        kind = _blow_up_kind(self.anchors) if self.kind == BLOW_DOWN else BLOW_DOWN
        return Move(kind, self.vertex, self.position, self.anchors)


@dataclass(frozen=True)
class MoveLog:
    moves: Tuple[Move, ...] = ()

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)

    def __add__(self, other: "MoveLog") -> "MoveLog":
        return MoveLog(self.moves + other.moves)

    def inverted(self) -> "MoveLog":
        return MoveLog(tuple(m.inverted() for m in reversed(self.moves)))

    def replay(self, g: WeightedGraph) -> WeightedGraph:
        for m in self.moves:
            g = apply_move(g, m)
        return g


def apply_move(g: WeightedGraph, m: Move) -> WeightedGraph:
    """Mechanically apply a Move patch (no snc precondition re-checks).

    A blow-down undoes exactly the patch of the blow-up with the same
    anchors, so the kind must match the anchor count (see blow_up).
    """
    if m.kind not in (_blow_up_kind(m.anchors), BLOW_DOWN):
        raise ValueError(f"{m.kind!r} move cannot have anchors {m.anchors}")
    corner = _norm_edge(*m.anchors) if len(m.anchors) == 2 else None
    if m.kind == BLOW_DOWN:
        g.require_vertex(m.vertex)
        if g.weight(m.vertex) != -1:
            raise NotMinusOne(f"vertex {m.vertex} has weight {g.weight(m.vertex)}")
        if tuple(sorted(g.neighbors(m.vertex))) != tuple(sorted(m.anchors)):
            raise ValueError(f"move anchors {m.anchors} do not match the graph")
        if corner is not None and corner[0] == corner[1]:
            raise ValueError(f"vertex {m.vertex} meets {corner[0]} twice")
        order = [v for v in g.vertices if v != m.vertex]
        edges = [e for e in g.edges if m.vertex not in e]
        if corner is not None:
            edges.append(corner)
        step, next_id = 1, g.next_id
    else:
        if corner is not None and not g.has_edge(*corner):
            raise UnknownEdge("no edge {}-{}".format(*m.anchors))
        for a in m.anchors:
            g.require_vertex(a)
        if g.has_vertex(m.vertex):
            raise ValueError(f"move would recreate existing vertex {m.vertex}")
        if not 0 <= m.position <= len(g):
            raise ValueError(f"insertion position {m.position} out of range")
        order = list(g.vertices)
        order.insert(m.position, m.vertex)
        edges = list(g.edges) + [_norm_edge(m.vertex, a) for a in m.anchors]
        if corner is not None:
            edges.remove(corner)
        step, next_id = -1, max(g.next_id, m.vertex + 1)
    weights = {v: g.weight(v) if v != m.vertex else -1 for v in order}
    for a in m.anchors:
        weights[a] += step
    return WeightedGraph(order, weights, edges, next_id)


def blow_up(g: WeightedGraph, anchors: Iterable[int] = ()) -> Tuple[WeightedGraph, Move]:
    """Blow up the point where the anchor curves (at most two) meet.

    The fresh (-1)-vertex meets each anchor once and each anchor's weight
    drops by 1; two anchors must meet, and the new vertex replaces one of
    their edges.  No anchor means a point on no tracked curve.
    """
    anchors = tuple(anchors)
    m = Move(_blow_up_kind(anchors), g.next_id, len(g), anchors)
    return apply_move(g, m), m


def blow_up_free(g: WeightedGraph, v: int) -> Tuple[WeightedGraph, Move]:
    """Insert a fresh (-1)-vertex meeting v once; v's weight drops by 1."""
    return blow_up(g, (v,))


def blow_up_edge(g: WeightedGraph, a: int, b: int) -> Tuple[WeightedGraph, Move]:
    """Replace one a-b intersection by a fresh (-1)-vertex meeting both."""
    return blow_up(g, (a, b))


def blow_down(g: WeightedGraph, v: int) -> Tuple[WeightedGraph, Move]:
    """Contract a non-branching (-1)-vertex.

    The vertex must have weight -1 and at most two incident intersection
    points; with two, its neighbors must be distinct and not already meet
    (contracting would otherwise leave a non-transversal double point).
    """
    g.require_vertex(v)
    if g.weight(v) != -1:
        raise NotMinusOne(f"vertex {v} has weight {g.weight(v)}, need -1")
    nbs = g.neighbors(v)
    if len(nbs) >= 3:
        raise TooBranched(f"vertex {v} meets {len(nbs)} intersection points")
    if len(nbs) == 2:
        if nbs[0] == nbs[1]:
            raise NotSnc(f"vertex {v} meets {nbs[0]} twice")
        if g.has_edge(nbs[0], nbs[1]):
            raise NotSnc(f"neighbors {nbs[0]} and {nbs[1]} already meet")
    m = Move(BLOW_DOWN, v, g.position(v), nbs)
    return apply_move(g, m), m


def spawn(g: WeightedGraph) -> Tuple[WeightedGraph, Move]:
    """Add an isolated fresh (-1)-vertex (blow-up at an untracked point)."""
    return blow_up(g)


def _contractible(g: WeightedGraph, v: int, protected) -> bool:
    if v in protected or g.weight(v) != -1:
        return False
    nbs = g.neighbors(v)
    if len(nbs) >= 3:
        return False
    if len(nbs) == 2 and (nbs[0] == nbs[1] or g.has_edge(nbs[0], nbs[1])):
        return False
    return True


def snc_minimalize(
    g: WeightedGraph, protected: Iterable[int] = ()
) -> Tuple[WeightedGraph, MoveLog]:
    """Blow down unprotected non-branching (-1)-vertices until none remain.

    Deterministic: the smallest eligible vertex id is contracted first.
    Vertices whose contraction would break transversality are skipped (they
    may become eligible later).  Terminates since every step removes a
    vertex.
    """
    prot = frozenset(protected)
    for v in prot:
        g.require_vertex(v)
    log: List[Move] = []
    while True:
        for v in sorted(g.vertices):
            if _contractible(g, v, prot):
                g, m = blow_down(g, v)
                log.append(m)
                break
        else:
            return g, MoveLog(tuple(log))


def elementary_transformation(
    g: WeightedGraph, zero_vertex: int, side
) -> Tuple[WeightedGraph, MoveLog]:
    """Blow up on a 0-vertex, then blow the old vertex down.

    side selects the center: a neighbor id blows up that intersection
    point, the string "free" blows up a free point of the 0-vertex.  On an
    interior chain [a, 0, b] with side toward the a-vertex the effect is
    [a+1, 0, b-1]; on a 0-tip with side "free" the neighbor weight rises by
    1 and the new tip is again a 0-vertex.
    """
    g.require_vertex(zero_vertex)
    if g.weight(zero_vertex) != 0:
        raise NotZeroCurve(f"vertex {zero_vertex} has weight {g.weight(zero_vertex)}")
    deg = g.degree(zero_vertex)
    if deg > 2:
        raise TooBranched(f"vertex {zero_vertex} meets {deg} intersection points")
    if side == "free":
        if deg >= 2:
            raise TooBranched(
                "free transformation on a vertex with two intersection points "
                "would leave it too branched to contract"
            )
        g1, m1 = blow_up_free(g, zero_vertex)
    else:
        if not g.has_edge(zero_vertex, side):
            raise UnknownEdge(f"no edge {zero_vertex}-{side}")
        g1, m1 = blow_up_edge(g, zero_vertex, side)
    g2, m2 = blow_down(g1, zero_vertex)
    return g2, MoveLog((m1, m2))
