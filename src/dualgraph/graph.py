"""Weighted dual graphs of curve configurations.

A vertex is a rational curve carrying its integer self-intersection as a
weight; an edge is one transversal intersection point of two curves, so a
pair of vertices may be joined by several parallel edges.  Self-loops are
forbidden: a component crossing itself is outside this category.

Graphs are immutable.  Vertex ids are stable small integers; the canonical
vertex order is insertion order and never changes under derived-graph
construction.  Ids of removed vertices are never handed out again.

Each graph builds its adjacency index (every vertex's neighbours in
canonical order, one entry per parallel edge) and its position table once,
on the first read that needs them, and keeps them.  Immutability makes
that safe: nothing can change the vertices or edges they were built from.
A run of moves does not make a graph per step: the move engine patches one
mutable draft (moves._Draft) and freezes it into a graph only where a
caller reads one, so graphs are built once per run, not once per move.

A vertex selection (a twig, a fiber member, a far chain) becomes its
induced graph once, on entry to each function that takes one, so every
kernel reads a WeightedGraph; selecting everything gives the graph itself.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .errors import DuplicateId, SelfLoop, UnknownEndpoint, UnknownVertex

VertexId = int
Edge = Tuple[int, int]


def _norm_edge(a: int, b: int) -> Edge:
    return (a, b) if a <= b else (b, a)


class WeightedGraph:
    """Immutable weighted multigraph without self-loops.

    Do not call the constructor directly; use build_graph or the move
    operations, which maintain the fresh-id counter.
    """

    __slots__ = ("_order", "_weight", "_edges", "_next_id", "_adj", "_pos")

    def __init__(self, order, weight, edges, next_id):
        self._order: Tuple[int, ...] = tuple(order)
        self._weight: Dict[int, int] = dict(weight)
        self._edges: Tuple[Edge, ...] = tuple(sorted(_norm_edge(a, b) for a, b in edges))
        self._next_id: int = next_id
        self._adj: Optional[Dict[int, Tuple[int, ...]]] = None
        self._pos: Optional[Dict[int, int]] = None

    def _index(self) -> Dict[int, Tuple[int, ...]]:
        if self._adj is None:
            self._adj = self._build_index()
        return self._adj

    def _build_index(self) -> Dict[int, Tuple[int, ...]]:
        incident: Dict[int, List[int]] = {v: [] for v in self._order}
        for a, b in self._edges:
            incident[a].append(b)
            incident[b].append(a)
        # visiting the vertices in canonical order lists each one's
        # neighbours in canonical order without a sort
        adj: Dict[int, List[int]] = {v: [] for v in self._order}
        for u in self._order:
            for v in incident[u]:
                adj[v].append(u)
        return {v: tuple(ns) for v, ns in adj.items()}

    def _positions(self) -> Dict[int, int]:
        if self._pos is None:
            self._pos = {v: i for i, v in enumerate(self._order)}
        return self._pos

    @property
    def vertices(self) -> Tuple[int, ...]:
        """Vertex ids in canonical (insertion) order."""
        return self._order

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """Sorted multiset of normalized (low, high) pairs."""
        return self._edges

    @property
    def next_id(self) -> int:
        return self._next_id

    def has_vertex(self, v: int) -> bool:
        return v in self._weight

    def weight(self, v: int) -> int:
        try:
            return self._weight[v]
        except KeyError:
            raise UnknownVertex(f"no vertex {v!r}") from None

    def require_vertex(self, v: int) -> None:
        if v not in self._weight:
            raise UnknownVertex(f"no vertex {v!r}")

    def edge_multiplicity(self, a: int, b: int) -> int:
        e = _norm_edge(a, b)
        lo = bisect_left(self._edges, e)
        return bisect_right(self._edges, e, lo) - lo

    def has_edge(self, a: int, b: int) -> bool:
        return self.edge_multiplicity(a, b) > 0

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Adjacent ids, one entry per incident edge, in canonical order."""
        try:
            return self._index()[v]
        except KeyError:
            raise UnknownVertex(f"no vertex {v!r}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def position(self, v: int) -> int:
        """Index of v in the canonical order."""
        self.require_vertex(v)
        return self._positions()[v]

    def __len__(self) -> int:
        return len(self._order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        # the fresh-id counter is bookkeeping, not graph data
        return (
            self._order == other._order
            and self._weight == other._weight
            and self._edges == other._edges
        )

    __hash__ = None

    def __repr__(self) -> str:
        ws = ", ".join(f"{v}:{self._weight[v]}" for v in self._order)
        es = ", ".join(f"{a}-{b}" for a, b in self._edges)
        return f"<WeightedGraph [{ws}] edges [{es}]>"


def build_graph(
    vertex_weights: Iterable[Tuple[int, int]],
    edges: Iterable[Tuple[int, int]] = (),
) -> WeightedGraph:
    """Construct a graph from (id, weight) pairs and id-pair edges.

    A mapping of id to weight works too.  Ids must be unique integers; edge
    endpoints must be declared; edges may repeat (parallel intersection
    points) but may not join a vertex to itself.
    """
    if isinstance(vertex_weights, Mapping):
        vertex_weights = vertex_weights.items()
    order: List[int] = []
    weight: Dict[int, int] = {}
    for v, w in vertex_weights:
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"vertex id must be an int, got {v!r}")
        if v in weight:
            raise DuplicateId(f"vertex {v} declared twice")
        order.append(v)
        weight[v] = w
    edge_list: List[Edge] = []
    for a, b in edges:
        if a not in weight:
            raise UnknownEndpoint(f"edge endpoint {a!r} is not a vertex")
        if b not in weight:
            raise UnknownEndpoint(f"edge endpoint {b!r} is not a vertex")
        if a == b:
            raise SelfLoop(f"edge {a}-{b} joins a vertex to itself")
        edge_list.append(_norm_edge(a, b))
    next_id = max(order, default=0) + 1
    return WeightedGraph(order, weight, edge_list, next_id)


def with_vertex(
    g: WeightedGraph, weight: int, neighbors: Iterable[int] = ()
) -> Tuple[WeightedGraph, int]:
    """Append one fresh vertex, optionally wired to existing vertices.

    This covers assembly steps that fall outside the blow-up calculus,
    such as gluing a resolved germ onto its exceptional locus.  Returns
    the new graph and the id it assigned.
    """
    vid = g.next_id
    w = dict(g._weight)
    w[vid] = weight
    edge_list = list(g.edges)
    for u in neighbors:
        g.require_vertex(u)
        edge_list.append(_norm_edge(vid, u))
    return WeightedGraph(g.vertices + (vid,), w, edge_list, vid + 1), vid


class SubDivisor:
    """A validated vertex selection of a parent graph.

    It exists only to build the selection's induced graph: every kernel
    reads a WeightedGraph, and induced_graph turns a selection into one.
    """

    __slots__ = ("_parent", "_selected")

    def __init__(self, parent: WeightedGraph, selected: Iterable[int]):
        sel = frozenset(selected)
        for v in sel:
            if not parent.has_vertex(v):
                raise UnknownVertex(f"selection contains unknown vertex {v!r}")
        self._parent = parent
        self._selected = sel

    @property
    def parent(self) -> WeightedGraph:
        return self._parent

    @property
    def selected(self) -> frozenset:
        return self._selected

    def order(self) -> Tuple[int, ...]:
        """The selected ids in the parent's canonical order."""
        return tuple(sorted(self._selected, key=self._parent._positions().__getitem__))

    def induced_edges(self) -> Tuple[Edge, ...]:
        """Edges with both ends selected, sorted like the parent's edges."""
        sel = self._selected
        adj = self._parent._index()
        return tuple(sorted((v, u) for v in sel for u in adj[v] if v < u and u in sel))

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Selected neighbours of v; nothing calls it, but bench/tracer.py times it."""
        if v not in self._selected:
            raise UnknownVertex(f"vertex {v!r} not in selection")
        sel = self._selected
        return tuple(u for u in self._parent.neighbors(v) if u in sel)


Selection = Union[SubDivisor, Iterable[int], None]


def subdivisor(g: WeightedGraph, selection: Selection = None) -> SubDivisor:
    """Coerce a selection (None = everything) to a SubDivisor of g."""
    if selection is None:
        return SubDivisor(g, g.vertices)
    if isinstance(selection, SubDivisor):
        if selection.parent is not g and selection.parent != g:
            raise UnknownVertex("selection belongs to a different graph")
        return selection
    return SubDivisor(g, selection)


def induced_graph(g: WeightedGraph, selection: Selection = None) -> WeightedGraph:
    """The selection as a graph of its own; g itself when it selects everything.

    Every function that takes a selection reads it through this graph.
    Vertex ids, their canonical order, weights and the fresh-id counter are
    kept, so moves on the result never reuse an id of g.
    """
    if selection is None:
        return g
    s = subdivisor(g, selection)
    if len(s.selected) == len(g):
        return g
    verts = s.order()
    return WeightedGraph(verts, {v: g._weight[v] for v in verts}, s.induced_edges(), g.next_id)


def intersection_matrix(g: WeightedGraph, selection: Selection = None) -> List[List[int]]:
    """Symmetric matrix Q: weights on the diagonal, edge counts off it.

    Row order is the canonical vertex order restricted to the selection.
    """
    g = induced_graph(g, selection)
    idx = g._positions()
    q = [[0] * len(g) for _ in range(len(g))]
    for i, v in enumerate(g.vertices):
        q[i][i] = g.weight(v)
    for a, b in g.edges:
        q[idx[a]][idx[b]] += 1
        q[idx[b]][idx[a]] += 1
    return q


@dataclass(frozen=True)
class ShapeReport:
    """Connectivity and branching facts about a selection."""

    is_forest: bool
    is_tree: bool
    is_chain: bool
    components: Tuple[Tuple[int, ...], ...]
    tips: Tuple[int, ...]
    branching: Tuple[int, ...]


def classify_shape(g: WeightedGraph, selection: Selection = None) -> ShapeReport:
    """Report forest/tree/chain structure, components, tips, branch vertices.

    Degrees count parallel edges, so a double edge is a cycle and spoils
    forestness.  Tips are vertices of degree <= 1 (isolated ones included);
    branching vertices have degree >= 3.
    """
    g = induced_graph(g, selection)
    verts = g.vertices
    deg: Dict[int, int] = {}
    label: Dict[int, int] = {}
    for root in verts:
        if root in label:
            continue
        label[root] = root
        stack = [root]
        while stack:
            v = stack.pop()
            nbs = g.neighbors(v)
            deg[v] = len(nbs)
            for u in nbs:
                if u not in label:
                    label[u] = root
                    stack.append(u)
    groups: Dict[int, List[int]] = {}
    for v in verts:
        groups.setdefault(label[v], []).append(v)
    components = tuple(tuple(vs) for vs in groups.values())
    tips = tuple(v for v in verts if deg[v] <= 1)
    branching = tuple(v for v in verts if deg[v] >= 3)
    # a graph is a forest iff it has exactly V - C edges
    is_forest = len(g.edges) == len(verts) - len(components)
    is_tree = is_forest and len(components) == 1
    is_chain = is_tree and all(deg[v] <= 2 for v in verts)
    return ShapeReport(is_forest, is_tree, is_chain, components, tips, branching)
