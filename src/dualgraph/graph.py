"""Weighted dual graphs of curve configurations.

A vertex is a rational curve carrying its integer self-intersection as a
weight; an edge is one transversal intersection point of two curves, so a
pair of vertices may be joined by several parallel edges.  Self-loops are
forbidden: a component crossing itself is outside this category.

Graphs are immutable.  Vertex ids are stable small integers; the canonical
vertex order is insertion order and never changes under derived-graph
construction.  Ids of removed vertices are never handed out again.  Each
graph builds its adjacency index (every vertex's neighbours in canonical
order, one entry per parallel edge) once, on the first read that needs
it, and keeps it, which immutability makes safe.  A run of moves patches
one mutable draft (moves._Draft) and freezes it once, not once per move.

Every package graph is built by WeightedGraph._trusted, which takes over
state its three callers hold canonical and sorts their fresh (low, high)
edge list once: build_graph normalizes each edge as it checks it,
_Draft.freeze hands over its draft, and induced_graph also the child's
index, restricted from the parent's.  The public constructor normalizes
what it is given; no package code calls it.

A vertex selection (a twig, a fiber member, a far chain) is an iterable of
ids, or None for all; induced_graph alone reads one, on entry to each function
that takes one, so every kernel reads a WeightedGraph.  It checks the selection
with one subset test against the graph's ids.  Ids are ints, never bools:
an id, endpoint or member of any other type raises TypeError before lookup.

Shape questions read one breadth-first walk, _walk, with no recursion.  It
walks a graph's index in classify_shape, in the forest pass behind the
lattice invariants and validate_fiber's tree test, in validate_fiber's second
tier, in fiber_key, and in chain_order, whose one walk is both the chain test
and the path order of each member the resolution pipeline measures.  The chain
rewriting, the fiber census and resolution._split_at walk a draft's adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import DuplicateId, SelfLoop, UnknownEndpoint, UnknownVertex

Edge = Tuple[int, int]


def _norm_edge(a: int, b: int) -> Edge:
    return (a, b) if a <= b else (b, a)


def _require_int(v) -> None:
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"vertex id must be an int, got {v!r}")


class WeightedGraph:
    """Immutable weighted multigraph without self-loops.

    Build one with build_graph or the move operations, which maintain the
    fresh-id counter; all of them go through _trusted, which takes over
    state already canonical.  The public constructor copies, normalizes
    and sorts what it is given, for callers whose edges are unnormalized.
    """

    __slots__ = ("_order", "_weight", "_edges", "_next_id", "_adj")

    def __init__(self, order, weight, edges, next_id):
        self._order: Tuple[int, ...] = tuple(order)
        self._weight: Dict[int, int] = dict(weight)
        self._edges: Tuple[Edge, ...] = tuple(sorted(_norm_edge(a, b) for a, b in edges))
        self._next_id: int = next_id
        self._adj: Optional[Dict[int, Tuple[int, ...]]] = None

    @classmethod
    def _trusted(cls, order, weight, edges, next_id, adj=None) -> "WeightedGraph":
        """The graph of state already canonical, taken over without checks.

        Its callers are build_graph, _Draft.freeze and induced_graph.
        order is the canonical order; weight, a dict, and edges, a list of
        (low, high) pairs, are fresh and become the graph's own, edges
        sorted in place; adj, when given, is what _build_index would build.
        """
        g = cls.__new__(cls)
        edges.sort()
        g._order = tuple(order)
        g._weight = weight
        g._edges = tuple(edges)
        g._next_id = next_id
        g._adj = adj
        return g

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
        return self._index().get(a, ()).count(b)

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

    A mapping of id to weight works too.  Ids must be unique ints; edge
    endpoints must be declared ints; edges may repeat (parallel intersection
    points) but may not join a vertex to itself.
    """
    if isinstance(vertex_weights, Mapping):
        vertex_weights = vertex_weights.items()
    order: List[int] = []
    weight: Dict[int, int] = {}
    for v, w in vertex_weights:
        _require_int(v)
        if v in weight:
            raise DuplicateId(f"vertex {v} declared twice")
        order.append(v)
        weight[v] = w
    edge_list: List[Edge] = []
    for a, b in edges:
        _require_int(a)
        _require_int(b)
        if a not in weight:
            raise UnknownEndpoint(f"edge endpoint {a!r} is not a vertex")
        if b not in weight:
            raise UnknownEndpoint(f"edge endpoint {b!r} is not a vertex")
        if a == b:
            raise SelfLoop(f"edge {a}-{b} joins a vertex to itself")
        edge_list.append(_norm_edge(a, b))
    return WeightedGraph._trusted(order, weight, edge_list, max(order, default=0) + 1)


class SubDivisor:
    """A validated vertex selection of a graph: its ids and the edges among them.

    The package builds none: it is the tests' reference for induced_graph,
    and bench/tracer.py times its induced_edges and neighbors.
    """

    __slots__ = ("_parent", "_selected")

    def __init__(self, parent: WeightedGraph, selected: Iterable[int]):
        sel = frozenset(selected)
        for v in sel:
            if not parent.has_vertex(v):
                raise UnknownVertex(f"selection contains unknown vertex {v!r}")
        self._parent = parent
        self._selected = sel

    def induced_edges(self) -> Tuple[Edge, ...]:
        """Edges with both ends selected, sorted like the parent's edges."""
        sel = self._selected
        adj = self._parent._index()
        return tuple(sorted((v, u) for v in sel for u in adj[v] if v < u and u in sel))

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Selected neighbours of v."""
        if v not in self._selected:
            raise UnknownVertex(f"vertex {v!r} not in selection")
        sel = self._selected
        return tuple(u for u in self._parent.neighbors(v) if u in sel)


Selection = Optional[Iterable[int]]


def induced_graph(g: WeightedGraph, selection: Selection = None) -> WeightedGraph:
    """The selection as a graph of its own; g itself when it selects everything.

    The one reader of a selection, whose order and repeats do not matter;
    its first member, in frozenset order, that is no int or no vertex of g
    raises TypeError or UnknownVertex.
    Vertex ids, their canonical order, weights and the fresh-id counter are
    kept, so moves on the result never reuse an id of g.  g's index lists
    neighbours in canonical order, so its restriction to the selection is
    the result's index, parallel edges included, and the result takes it over.
    """
    if selection is None:
        return g
    sel = frozenset(selection)
    for v in sel:
        if type(v) is not int:
            _require_int(v)
    if not g._weight.keys() >= sel:
        v = next(v for v in sel if v not in g._weight)
        raise UnknownVertex(f"selection contains unknown vertex {v!r}")
    if len(sel) == len(g):
        return g
    parent = g._index()
    adj = {v: tuple(filter(sel.__contains__, parent[v])) for v in g.vertices if v in sel}
    edges = [(v, u) for v, ns in adj.items() for u in ns if v < u]
    return WeightedGraph._trusted(adj, {v: g._weight[v] for v in adj}, edges, g.next_id, adj)


def intersection_rows(g: WeightedGraph) -> List[Dict[int, int]]:
    """The rows of Q by vertex position, each mapping a column to its nonzero
    entry: the weight on the diagonal, the edge count off it."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    rows = [{i: w} if (w := g.weight(v)) else {} for i, v in enumerate(g.vertices)]
    for a, b in g.edges:
        i, j = idx[a], idx[b]
        rows[i][j] = rows[j][i] = rows[i].get(j, 0) + 1
    return rows


def intersection_matrix(g: WeightedGraph, selection: Selection = None) -> List[List[int]]:
    """Symmetric matrix Q, its rows in the canonical order of the selection."""
    rows = intersection_rows(induced_graph(g, selection))
    return [[r.get(j, 0) for j in range(len(rows))] for r in rows]


@dataclass(frozen=True)
class ShapeReport:
    """Connectivity and branching facts about a selection."""

    is_forest: bool
    is_tree: bool
    is_chain: bool
    components: Tuple[Tuple[int, ...], ...]
    tips: Tuple[int, ...]
    branching: Tuple[int, ...]


def _walk(adj: Mapping[int, Iterable[int]], roots: Optional[Iterable[int]] = None):
    """(order, parent): each component walked breadth first from its first root.

    adj maps vertices to neighbours (a graph's _index(), a draft's adj);
    roots defaults to its keys, a graph's canonical order, which reaches
    every component; components holding no root are not walked.  parent
    maps each walked vertex to the neighbour it was reached from, a root
    to None, and the reverse of order lists every vertex after all of its
    descendants.
    """
    parent: Dict[int, Optional[int]] = {}
    order: List[int] = []
    for root in adj if roots is None else roots:
        if root in parent:
            continue
        parent[root] = None
        # a list iterator also visits what is appended while it runs
        queue = [root]
        for v in queue:
            for u in adj[v]:
                if u not in parent:
                    parent[u] = v
                    queue.append(u)
        order += queue
    return order, parent


def classify_shape(g: WeightedGraph, selection: Selection = None) -> ShapeReport:
    """Report forest/tree/chain structure, components, tips, branch vertices.

    Degrees count parallel edges, so a double edge is a cycle and spoils
    forestness.  Tips are vertices of degree <= 1 (isolated ones included);
    branching vertices have degree >= 3.
    """
    g = induced_graph(g, selection)
    verts = g.vertices
    order, parent = _walk(g._index())
    label: Dict[int, int] = {}
    for v in order:
        label[v] = v if parent[v] is None else label[parent[v]]
    groups: Dict[int, List[int]] = {}
    for v in verts:
        groups.setdefault(label[v], []).append(v)
    components = tuple(tuple(vs) for vs in groups.values())
    deg = {v: len(ns) for v, ns in g._index().items()}
    tips = tuple(v for v in verts if deg[v] <= 1)
    branching = tuple(v for v in verts if deg[v] >= 3)
    # a graph is a forest iff it has exactly V - C edges
    is_forest = len(g.edges) == len(verts) - len(components)
    is_tree = is_forest and len(components) == 1
    is_chain = is_tree and all(deg[v] <= 2 for v in verts)
    return ShapeReport(is_forest, is_tree, is_chain, components, tips, branching)
