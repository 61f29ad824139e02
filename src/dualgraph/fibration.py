"""Singular fibers of rational fibrations and their counting identity.

A degenerate fiber is what a single 0-curve becomes under repeated blow-ups,
so fibers are exactly the weighted trees reachable from the 0-vertex, and
each component carries a positive multiplicity: 1 for the initial curve,
inherited from the carrier for a blow-up at a free point, added across the
edge for a blow-up at an intersection point.  The multiplicity vector m is
numerically trivial (Q m = 0 for the intersection matrix Q), which pins it
uniquely once the graph is known.

enumerate_fibers walks this inductive definition breadth-first and keeps one
representative per isomorphism class of (weight, multiplicity)-labeled tree.
validate_fiber checks the structural facts every fiber must satisfy, plus a
second tier for fibers with a unique (-1)-vertex.  fujita_accounting checks
the counting identity h + nu + rho = Sigma + #boundary + 2 on an assembled
fibration model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import ModelInconsistent, NotAForest
from .graph import WeightedGraph, build_graph, classify_shape
from .lattice import discriminant
from .moves import MoveLog, blow_up


@dataclass(frozen=True)
class Fiber:
    """A fiber dual graph with multiplicities and its blow-up history.

    history replays against the single 0-vertex produced by initial_fiber().
    """

    graph: WeightedGraph
    multiplicity: Dict[int, int]
    history: MoveLog

    def mult(self, v: int) -> int:
        return self.multiplicity[v]


def initial_fiber() -> Fiber:
    """The smooth fiber: one 0-curve of multiplicity 1."""
    g = build_graph([(0, 0)], [])
    return Fiber(g, {0: 1}, MoveLog())


Position = Union[int, Tuple[int, int]]


def fiber_blow_up(f: Fiber, position: Position) -> Fiber:
    """Blow up the fiber at a free point of a vertex or at an edge."""
    anchors = position if isinstance(position, tuple) else (position,)
    g, move = blow_up(f.graph, anchors)
    mult = dict(f.multiplicity)
    mult[move.vertex] = sum(f.multiplicity[a] for a in anchors)
    return Fiber(g, mult, f.history + MoveLog((move,)))


def is_numerically_trivial(f: Fiber) -> bool:
    """Q m = 0: the full fiber meets every component in zero points.

    (Q m)_v = w_v m_v + the sum of m_u over the edges at v, read off the
    adjacency in time linear in the graph.
    """
    g, m = f.graph, f.multiplicity
    return all(g.weight(v) * m[v] + sum(m[u] for u in g.neighbors(v)) == 0
               for v in g.vertices)


def _encode_rooted(g: WeightedGraph, labels: Mapping[int, Tuple[int, int]], root: int):
    def enc(v: int, parent: Optional[int]):
        kids = sorted(enc(u, v) for u in set(g.neighbors(v)) if u != parent)
        return (labels[v], tuple(kids))

    return enc(root, None)


def fiber_key(f: Fiber):
    """Canonical form of the labeled tree, minimized over all roots."""
    shape = classify_shape(f.graph)
    if not shape.is_tree:
        raise NotAForest("fiber graphs are trees")
    g = f.graph
    labels = {v: (g.weight(v), f.multiplicity[v]) for v in g.vertices}
    return min(_encode_rooted(g, labels, r) for r in g.vertices)


def enumerate_fibers(max_vertices: int) -> List[Fiber]:
    """All fiber classes with at most max_vertices components.

    Breadth-first closure of the smooth fiber under fiber_blow_up, one
    representative per isomorphism class, in (size, canonical form) order.
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    start = initial_fiber()
    classes = {fiber_key(start): start}
    frontier = [start]
    while frontier:
        nxt: List[Fiber] = []
        for f in frontier:
            if len(f.graph) >= max_vertices:
                continue
            positions: List[Position] = list(f.graph.vertices)
            positions.extend(sorted(set(f.graph.edges)))
            for pos in positions:
                child = fiber_blow_up(f, pos)
                key = fiber_key(child)
                if key not in classes:
                    classes[key] = child
                    nxt.append(child)
        frontier = nxt
    ordered = sorted(classes.items(), key=lambda kf: (len(kf[1].graph), kf[0]))
    return [f for _key, f in ordered]


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
    """
    g = f.graph
    bad: List[str] = []
    shape = classify_shape(g)
    if not shape.is_tree:
        bad.append("fiber graph is not a tree")
    for v in g.vertices:
        if g.weight(v) == -1 and g.degree(v) >= 3:
            bad.append(f"(-1)-vertex {v} branches")
    if shape.is_tree and discriminant(g) != 0:
        bad.append("discriminant is not zero")
    if not is_numerically_trivial(f):
        bad.append("multiplicity vector is not numerically trivial")

    minus_ones = [v for v in g.vertices if g.weight(v) == -1]
    second = shape.is_tree and len(minus_ones) == 1
    if second:
        center = minus_ones[0]
        rest = [v for v in g.vertices if v != center]
        comps = classify_shape(g, rest).components
        if len(comps) > 2:
            bad.append("complement of the (-1)-vertex has more than two components")
        if len(comps) == 2 and not any(classify_shape(g, c).is_chain for c in comps):
            bad.append("neither complement component is a chain")
        ones = [v for v in g.vertices if f.multiplicity[v] == 1]
        if len(ones) != 2:
            bad.append(f"expected two multiplicity-1 components, found {len(ones)}")
        if any(g.degree(v) > 1 for v in ones):
            bad.append("a multiplicity-1 component is not a tip")
        if not shape.is_chain and len(ones) == 2 and len(comps) >= 1:
            homes = []
            for v in ones:
                for i, c in enumerate(comps):
                    if v in c:
                        homes.append(i)
            if len(homes) == 2 and homes[0] != homes[1]:
                bad.append("multiplicity-1 tips split across complement components")
    return FiberReport(tuple(bad), second)


# ------------------------------------------------------------------ models


BoundaryItem = Tuple  # ("fiber", index, vertex) or ("section", index)


@dataclass(frozen=True)
class FibrationModel:
    """Fibers, abstract sections, and a boundary selection.

    Sections carry incidence data only: section j meets fiber i in the
    multiplicity-1 vertex sections[j][i].  The boundary lists fiber vertices
    as ("fiber", i, v) and whole sections as ("section", j).  rho counts the
    relative Picard rank, 2 + sum of (#fiber - 1).
    """

    fibers: Tuple[Fiber, ...]
    sections: Tuple[Dict[int, int], ...]
    boundary: frozenset
    rho: int


def fibration_model(
    fibers: Sequence[Fiber],
    sections: Sequence[Mapping[int, int]],
    boundary: Iterable[BoundaryItem],
) -> FibrationModel:
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
    bd = frozenset(boundary)
    for item in bd:
        if item[0] == "fiber":
            _, i, v = item
            if not (0 <= i < len(fibers)) or not fibers[i].graph.has_vertex(v):
                raise ModelInconsistent(f"boundary names unknown fiber vertex {item}")
        elif item[0] == "section":
            _, j = item
            if not (0 <= j < len(sections)):
                raise ModelInconsistent(f"boundary names unknown section {item}")
        else:
            raise ModelInconsistent(f"unrecognized boundary item {item}")
    rho = 2 + sum(len(f.graph) - 1 for f in fibers)
    return FibrationModel(fibers, sections, bd, rho)


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

    h counts boundary sections, nu the fibers lying entirely in the
    boundary, Sigma adds (outside-vertex count - 1) over the remaining
    fibers.  The identity holds for every well-formed model, so a mismatch
    means the model construction itself is broken.
    """
    h = sum(1 for item in model.boundary if item[0] == "section")
    nu = 0
    sigma = 0
    for i, f in enumerate(model.fibers):
        inside = {item[2] for item in model.boundary if item[0] == "fiber" and item[1] == i}
        outside = [v for v in f.graph.vertices if v not in inside]
        if not outside:
            nu += 1
        else:
            sigma += len(outside) - 1
    acc = FujitaAccounting(
        sections_in_boundary=h,
        fibers_in_boundary=nu,
        horizontal_like_sum=sigma,
        boundary_size=len(model.boundary),
        rho=model.rho,
    )
    if acc.left != acc.right:
        raise ModelInconsistent(
            f"counting identity failed: {acc.left} != {acc.right} ({acc})"
        )
    return acc
