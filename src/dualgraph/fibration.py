"""Singular fibers of rational fibrations and their counting identity.

A degenerate fiber is what a single 0-curve becomes under repeated blow-ups,
so fibers are exactly the weighted trees reachable from the 0-vertex, and
each component carries a positive multiplicity: 1 for the initial curve,
inherited from the carrier for a blow-up at a free point, added across the
edge for a blow-up at an intersection point.  The multiplicity vector m is
numerically trivial (Q m = 0 for the intersection matrix Q), which pins it
uniquely once the graph is known.

enumerate_fibers walks this inductive definition breadth-first and keeps one
representative per isomorphism class of (weight, multiplicity)-labeled tree,
one size level at a time: a blow-up adds exactly one vertex, and a flat key
holds two tokens per vertex, so keys of unequal sizes never collide.
Each expanded parent opens one move-engine draft, and each child is keyed on
it: the draft is blown up, keyed on its adjacency, weights and multiplicities,
and patched back by the inverse move, so the move engine alone says what a
blow-up changes.  Only a child with a new key is frozen into a graph, so the
census opens one draft per expanded parent and builds one graph per class,
not one of either per blow-up.
validate_fiber checks the structural facts every fiber must satisfy, plus a
second tier for fibers with a unique (-1)-vertex, all read from the graph's
one adjacency index.  fujita_accounting checks the counting identity
h + nu + rho = Sigma + #boundary + 2 on an assembled fibration model,
whose boundary is a set of section indices plus one vertex set per fiber.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple, Union

from .errors import ModelInconsistent, NotAForest
from .graph import WeightedGraph, _walk, build_graph
from .lattice import _forest_pass
from .moves import Move, MoveLog, _Draft


@dataclass(frozen=True)
class Fiber:
    """A fiber dual graph with multiplicities and its blow-up history.

    history replays against initial_fiber()'s 0-vertex for a fiber grown
    by fiber_blow_up or enumerate_fibers; it is empty for a fiber built
    from a graph directly, as the resolution pipeline builds its members.
    """

    graph: WeightedGraph
    multiplicity: Dict[int, int]
    history: MoveLog


def initial_fiber() -> Fiber:
    """The smooth fiber: one 0-curve of multiplicity 1."""
    g = build_graph([(0, 0)], [])
    return Fiber(g, {0: 1}, MoveLog())


Position = Union[int, Tuple[int, int]]


def _add_multiplicity(mult: Dict[int, int], move: Move) -> None:
    """Give the vertex a blow-up created its multiplicity in mult.

    A free point's new vertex inherits its carrier's multiplicity; an
    intersection point's adds its two curves'.
    """
    mult[move.vertex] = sum(mult[a] for a in move.anchors)


def fiber_blow_up(f: Fiber, position: Position) -> Fiber:
    """Blow up the fiber at a free point of a vertex or at an edge."""
    d = _Draft(f.graph)
    mult = dict(f.multiplicity)
    move = d.blow_up(position if isinstance(position, tuple) else (position,))
    _add_multiplicity(mult, move)
    return Fiber(d.freeze(), mult, f.history + MoveLog((move,)))


def is_numerically_trivial(f: Fiber) -> bool:
    """Q m = 0: the full fiber meets every component in zero points.

    (Q m)_v = w_v m_v + the sum of m_u over the edges at v, read off the
    adjacency index in time linear in the graph.
    """
    g, m = f.graph, f.multiplicity
    return all(g.weight(v) * m[v] + sum(m[u] for u in ns) == 0
               for v, ns in g._index().items())


# The close token of a flat key sorts below every label token (1, w, m), so a
# subtree with fewer children compares like a shorter tuple of child keys.
_CLOSE = (0,)


def _encode_rooted(adj: Mapping[int, Sequence[int]], weights: Mapping[int, int],
                   mult: Mapping[int, int], root: int) -> tuple:
    """Flat key of the tree hung from root, built leaves first.

    adj maps each vertex to its neighbours, weights and mult to its weight
    and multiplicity; only the vertices of adj are read.  A subtree's key is
    its root's label token (1, weight, multiplicity), then its children's
    keys in increasing order, then _CLOSE.  It is built as a list, which
    sorts among its siblings as the tuple does; only the root's key becomes
    a tuple.  Raises NotAForest when the walk from root misses a vertex.
    """
    order, parent = _walk(adj, (root,))
    if len(order) != len(adj):
        raise NotAForest("fiber graphs are trees")
    kids: Dict[int, List[list]] = {v: [] for v in order}
    for v in reversed(order):
        below = kids[v]
        below.sort()
        key = [(1, weights[v], mult[v])]
        for k in below:
            key += k
        key.append(_CLOSE)
        if parent[v] is not None:
            kids[parent[v]].append(key)
    return tuple(key)


def _tree_key(adj: Mapping[int, Sequence[int]], weights: Mapping[int, int],
              mult: Mapping[int, int]) -> tuple:
    """fiber_key of the tree with neighbour mapping adj, read as in _encode_rooted."""
    # the empty graph fails here too, before min sees no vertex
    if sum(map(len, adj.values())) != 2 * (len(adj) - 1):
        raise NotAForest("fiber graphs are trees")
    least = min((weights[v], mult[v]) for v in adj)
    return min(_encode_rooted(adj, weights, mult, r)
               for r in adj if (weights[r], mult[r]) == least)


def fiber_key(f: Fiber) -> tuple:
    """Canonical form of the labeled tree: the least rooted key over all roots.

    A rooted key is flat: the root's label token (1, weight, multiplicity),
    the children's rooted keys in increasing order, then a close token (0,)
    that sorts below every label token.  Flat keys compare exactly like the
    nested (label, sorted child keys) tuples, so one key serves both dedup
    and the census order, and no comparison recurses.  A rooted key begins
    with its root's label, so only the roots with the least label are
    tried; usually there is one.  A graph is a tree when it has V - 1 edges
    and the first rooting's walk reaches all V vertices.
    """
    return _tree_key(f.graph._index(), f.graph._weight, f.multiplicity)


def enumerate_fibers(max_vertices: int) -> List[Fiber]:
    """All fiber classes with at most max_vertices components.

    Breadth-first closure of the smooth fiber under blow-ups, one
    representative per isomorphism class, in (size, canonical form) order.
    Each level holds one size (a blow-up adds one vertex), so it is deduped
    in a table of its own, emitted in key order, expanded in discovery order.
    Each expanded parent opens one draft; every child is blown up on it,
    keyed on its adjacency, weights and multiplicities, and undone, and
    only a child with a new key is frozen into a graph.  The undo leaves
    the fresh-id counter raised, so it is reset to the parent's: every
    child of a parent gets the id a lone blow-up of it would.
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    level = [initial_fiber()]
    out = list(level)
    for _size in range(1, max_vertices):
        seen: Dict[tuple, Fiber] = {}
        for f in level:
            g = f.graph
            d = _Draft(g)
            mult = dict(f.multiplicity)
            for anchors in [(v,) for v in g.vertices] + list(g.edges):
                move = d.blow_up(anchors)
                _add_multiplicity(mult, move)
                key = _tree_key(d.adj, d.weights, mult)
                if key not in seen:
                    seen[key] = Fiber(d.freeze(), dict(mult), f.history + MoveLog((move,)))
                d.apply(move.inverted())
                d.next_id = g.next_id
        out += [seen[k] for k in sorted(seen)]
        level = list(seen.values())
    return out


@dataclass(frozen=True)
class FiberReport:
    violations: Tuple[str, ...]
    second_tier_applies: bool

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_fiber(f: Fiber) -> FiberReport:
    """Structural checks on a fiber; violations are reported, not raised.

    First tier (every fiber): tree shape, no branching (-1)-vertex, zero
    discriminant, numerically trivial multiplicity vector.  Second tier,
    when the fiber has exactly one (-1)-vertex: removing it leaves at most
    two components, one of them a chain if two; the fiber has exactly two
    multiplicity-1 components and they are tips, in the same component of
    the complement whenever the fiber itself is not a chain.

    Every check reads the graph's one adjacency index.  One forest pass
    (lattice._forest_pass) gives both the tree test and the discriminant:
    a graph is a tree when it is a forest with V - 1 edges.  In a tree,
    the complement of a vertex has one component per neighbour, read off
    one walk hung from that vertex.
    """
    g, m = f.graph, f.multiplicity
    adj = g._index()
    bad: List[str] = []
    forest = _forest_pass(g)
    is_tree = forest is not None and len(g.edges) == len(g) - 1
    if not is_tree:
        bad.append("fiber graph is not a tree")
    minus_ones = [v for v in g.vertices if g.weight(v) == -1]
    for v in minus_ones:
        if len(adj[v]) >= 3:
            bad.append(f"(-1)-vertex {v} branches")
    if is_tree and forest[0] != 0:
        bad.append("discriminant is not zero")
    if not is_numerically_trivial(f):
        bad.append("multiplicity vector is not numerically trivial")

    second = is_tree and len(minus_ones) == 1
    if second:
        center = minus_ones[0]
        # home[v]: the neighbour of center whose side of the tree holds v
        order, parent = _walk(adj, (center,))
        home: Dict[int, int] = {}
        for v in order[1:]:
            home[v] = v if parent[v] == center else home[parent[v]]
        sides = adj[center]
        if len(sides) > 2:
            bad.append("complement of the (-1)-vertex has more than two components")
        if len(sides) == 2:
            # a side is a chain when none of its vertices meets three others
            # in it; the side's root also meets the center
            wide = {home[v] for v in home if len(adj[v]) - (parent[v] == center) > 2}
            if wide.issuperset(sides):
                bad.append("neither complement component is a chain")
        ones = [v for v in g.vertices if m[v] == 1]
        if len(ones) != 2:
            bad.append(f"expected two multiplicity-1 components, found {len(ones)}")
        if any(len(adj[v]) > 1 for v in ones):
            bad.append("a multiplicity-1 component is not a tip")
        is_chain = all(len(ns) <= 2 for ns in adj.values())
        homes = [home[v] for v in ones if v in home]
        if not is_chain and len(ones) == len(homes) == 2 and homes[0] != homes[1]:
            bad.append("multiplicity-1 tips split across complement components")
    return FiberReport(tuple(bad), second)


# ------------------------------------------------------------------ models


@dataclass(frozen=True)
class FibrationModel:
    """Fibers, abstract sections, and a boundary selection.

    Sections carry incidence data only: section j meets fiber i in the
    multiplicity-1 vertex sections[j][i].  The boundary is the sections
    indexed by boundary_sections plus, for each fiber i, its vertices in
    boundary_vertices[i].  rho counts the relative Picard rank, 2 + sum of
    (#fiber - 1).
    """

    fibers: Tuple[Fiber, ...]
    sections: Tuple[Dict[int, int], ...]
    boundary_sections: FrozenSet[int]
    boundary_vertices: Tuple[FrozenSet[int], ...]
    rho: int


def fibration_model(
    fibers: Sequence[Fiber],
    sections: Sequence[Mapping[int, int]],
    boundary_sections: Iterable[int],
    boundary_vertices: Sequence[Iterable[int]],
) -> FibrationModel:
    """The model, after checks that raise ModelInconsistent on data it cannot hold."""
    fibers = tuple(fibers)
    sections = tuple(dict(s) for s in sections)
    for j, sec in enumerate(sections):
        if set(sec) != set(range(len(fibers))):
            raise ModelInconsistent(f"section {j} does not meet every fiber exactly once")
        for i, v in sec.items():
            if not fibers[i].graph.has_vertex(v):
                raise ModelInconsistent(f"section {j} meets fiber {i} in unknown vertex {v}")
            if fibers[i].multiplicity[v] != 1:
                raise ModelInconsistent(
                    f"section {j} meets fiber {i} in a multiplicity-"
                    f"{fibers[i].multiplicity[v]} vertex"
                )
    in_sections = frozenset(boundary_sections)
    for j in in_sections:
        if not 0 <= j < len(sections):
            raise ModelInconsistent(f"boundary names unknown section {j}")
    in_fibers = tuple(frozenset(vs) for vs in boundary_vertices)
    if len(in_fibers) != len(fibers):
        raise ModelInconsistent(
            f"boundary has {len(in_fibers)} vertex sets for {len(fibers)} fibers")
    for i, (f, inside) in enumerate(zip(fibers, in_fibers)):
        for v in inside:
            if not f.graph.has_vertex(v):
                raise ModelInconsistent(f"boundary names unknown vertex {v} of fiber {i}")
    rho = 2 + sum(len(f.graph) - 1 for f in fibers)
    return FibrationModel(fibers, sections, in_sections, in_fibers, rho)


@dataclass(frozen=True)
class FujitaAccounting:
    sections_in_boundary: int
    fibers_in_boundary: int
    horizontal_like_sum: int
    boundary_size: int
    rho: int

    @property
    def left(self) -> int:
        return self.sections_in_boundary + self.fibers_in_boundary + self.rho

    @property
    def right(self) -> int:
        return self.horizontal_like_sum + self.boundary_size + 2


def fujita_accounting(model: FibrationModel) -> FujitaAccounting:
    """Count both sides of h + nu + rho = Sigma + #boundary + 2.

    h = |boundary_sections|, nu counts the fibers whose boundary vertex
    set is the whole fiber, Sigma adds (outside-vertex count - 1) over the
    other fibers, and #boundary = h + the sizes of the vertex sets.  The
    identity holds for every well-formed model, so a mismatch means the
    model construction itself is broken.
    """
    h = len(model.boundary_sections)
    nu = 0
    sigma = 0
    for f, inside in zip(model.fibers, model.boundary_vertices):
        outside = len(f.graph) - len(inside)
        if not outside:
            nu += 1
        else:
            sigma += outside - 1
    acc = FujitaAccounting(
        sections_in_boundary=h,
        fibers_in_boundary=nu,
        horizontal_like_sum=sigma,
        boundary_size=h + sum(map(len, model.boundary_vertices)),
        rho=model.rho,
    )
    if acc.left != acc.right:
        raise ModelInconsistent(
            f"counting identity failed: {acc.left} != {acc.right} ({acc})"
        )
    return acc
