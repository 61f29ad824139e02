import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from dualgraph.chains import chain_order, standardize_chain
from dualgraph.errors import (
    DualGraphError,
    DuplicateId,
    SelfLoop,
    UnknownEndpoint,
    UnknownVertex,
)
from dualgraph.graph import (
    ShapeReport,
    SubDivisor,
    WeightedGraph,
    _walk,
    build_graph,
    classify_shape,
    induced_graph,
    intersection_matrix,
)
from dualgraph.lattice import discriminant, signature
from dualgraph.moves import MoveLog, apply_move, blow_down, blow_up


def chain(weights, start=1):
    ids = list(range(start, start + len(weights)))
    return build_graph(
        [(i, w) for i, w in zip(ids, weights)],
        [(a, a + 1) for a in ids[:-1]],
    )


def test_build_basic():
    g = build_graph([(1, 0), (2, 0)], [(1, 2)])
    assert g.vertices == (1, 2)
    assert g.weight(1) == 0
    assert g.edges == ((1, 2),)
    assert g.degree(1) == 1
    assert g.neighbors(1) == (2,)
    assert g.next_id == 3
    assert repr(g) == "<WeightedGraph [1:0, 2:0] edges [1-2]>"


def test_build_errors():
    with pytest.raises(DuplicateId):
        build_graph([(1, 0), (1, 2)], [])
    with pytest.raises(UnknownEndpoint):
        build_graph([(1, 0)], [(1, 2)])
    with pytest.raises(UnknownEndpoint, match="endpoint 2 "):
        build_graph([(1, 0)], [(2, 1)])
    with pytest.raises(TypeError, match="vertex id must be an int"):
        build_graph([("1", 0)])
    with pytest.raises(SelfLoop):
        build_graph([(1, -1)], [(1, 1)])


def test_unknown_vertex_access():
    g = build_graph([(1, 0)], [])
    with pytest.raises(UnknownVertex):
        g.weight(9)
    with pytest.raises(UnknownVertex, match="selection contains unknown vertex 9"):
        induced_graph(g, [9])


@pytest.mark.parametrize("bad", [True, False, 1.0, Fraction(1), "1"])
def test_selection_members_must_be_ints(bad):
    # True, 1.0 and Fraction(1) equal vertex 1, yet none of them is an id;
    # the type test comes before the lookup, even of a full selection
    g = chain([-2, -1, -2])
    for read in (discriminant, signature, chain_order, standardize_chain):
        for sel in ([bad], [2, bad, 99], [2, 3, bad]):
            with pytest.raises(TypeError, match=re.escape(f"vertex id must be an int, got {bad!r}")):
                read(g, sel)


@pytest.mark.parametrize("bad", [True, 1.0])
def test_edge_endpoints_must_be_ints(bad):
    for vertices, edge in (([(1, -2), (2, -2)], (bad, 2)), ([(1, -2), (2, -2)], (2, bad)),
                           ([(1, -2)], (9, bad))):
        with pytest.raises(TypeError, match=re.escape(f"vertex id must be an int, got {bad!r}")):
            build_graph(vertices, [edge])


@pytest.mark.parametrize("bad", [True, False, 1.5, -2.0, Fraction(1, 2), Fraction(1), "1"])
def test_weights_must_be_ints(bad):
    # a weight that equals an int is refused too, before any graph is built
    for vertices in ([(1, bad)], [(1, -2), (2, bad)], {1: bad, 2: -2}):
        with pytest.raises(TypeError, match=re.escape(f"must be an int, got {bad!r}")) as err:
            build_graph(vertices, [(1, 2)] if len(vertices) == 2 else [])
        assert str(err.value).startswith("weight of vertex ")


def test_multi_edge_counts():
    g = build_graph([(1, -2), (2, -3)], [(1, 2), (2, 1)])
    assert g.edge_multiplicity(1, 2) == 2
    assert g.degree(1) == 2
    assert g.neighbors(1) == (2, 2)
    # the public constructor normalizes and sorts the edges it is given
    h = WeightedGraph((1, 2, 3), {1: 0, 2: -1, 3: -2}, [(3, 2), (2, 1), (1, 2)], 4)
    assert h.edges == ((1, 2), (1, 2), (2, 3)) and h.neighbors(2) == (1, 1, 3)


def test_equality_ignores_fresh_counter():
    a = build_graph([(1, 0), (5, -2)], [(1, 5)])
    b = type(a)((1, 5), {1: 0, 5: -2}, [(5, 1)], 99)
    assert a == b
    assert a != ((1, 0), (5, -2))


def test_intersection_matrix_known():
    assert intersection_matrix(chain([-2, -2])) == [[-2, 1], [1, -2]]
    assert intersection_matrix(chain([0, 0])) == [[0, 1], [1, 0]]
    g = chain([0, 0])
    assert intersection_matrix(g, []) == []


def test_intersection_matrix_subselection():
    g = chain([-2, -1, -2])
    assert intersection_matrix(g, [1, 3]) == [[-2, 0], [0, -2]]
    # selection order follows canonical order, not argument order
    assert intersection_matrix(g, [3, 1]) == [[-2, 0], [0, -2]]
    assert intersection_matrix(g, [2, 3]) == [[-1, 1], [1, -2]]


def test_subdivisor_semantics():
    g = chain([-2, -1, -2])
    s = SubDivisor(g, [3, 1])
    assert induced_graph(g, [3, 1]).vertices == (1, 3)
    assert s.induced_edges() == ()
    assert s.neighbors(1) == () and SubDivisor(g, [1, 2]).neighbors(1) == (2,)
    with pytest.raises(UnknownVertex, match="not in selection"):
        s.neighbors(2)


def test_classify_chain():
    g = chain([-2, -1, -2])
    r = classify_shape(g)
    assert r.is_forest and r.is_tree and r.is_chain
    assert r.components == ((1, 2, 3),)
    assert r.tips == (1, 3)
    assert r.branching == ()


def test_classify_star():
    g = build_graph([(1, -1), (2, -2), (3, -2), (4, -2)], [(1, 2), (1, 3), (1, 4)])
    r = classify_shape(g)
    assert r.is_tree and not r.is_chain
    assert r.branching == (1,)
    assert set(r.tips) == {2, 3, 4}


def test_classify_triangle_and_multiedge():
    tri = build_graph([(1, 0), (2, 0), (3, 0)], [(1, 2), (2, 3), (1, 3)])
    assert not classify_shape(tri).is_forest
    dbl = build_graph([(1, 0), (2, 0)], [(1, 2), (1, 2)])
    assert not classify_shape(dbl).is_forest


def test_classify_empty_and_isolated():
    g = build_graph([(1, 0), (2, 0)], [])
    r = classify_shape(g)
    assert r.is_forest and not r.is_tree and not r.is_chain
    assert r.components == ((1,), (2,))
    assert r.tips == (1, 2)
    e = classify_shape(g, [])
    assert e.is_forest and not e.is_tree and e.components == ()


def test_classify_relabel_invariance():
    # same shape entered in two different id orders
    a = build_graph([(1, -1), (2, -2), (3, -2), (4, -2)], [(1, 2), (1, 3), (1, 4)])
    b = build_graph([(7, -2), (5, -1), (9, -2), (8, -2)], [(5, 7), (5, 8), (5, 9)])
    ra, rb = classify_shape(a), classify_shape(b)
    assert (ra.is_forest, ra.is_tree, ra.is_chain) == (rb.is_forest, rb.is_tree, rb.is_chain)
    assert len(ra.branching) == len(rb.branching) == 1


def test_induced_graph_keeps_ids_order_weights_and_fresh_counter():
    g = build_graph([(7, -2), (3, 0), (9, -1), (4, -3)], [(7, 3), (3, 9), (3, 9), (9, 4)])
    g, _ = blow_up(g, (4,))  # adds vertex 10, so next_id is 11
    h = induced_graph(g, [9, 3, 7])
    assert h.vertices == (7, 3, 9)
    assert [h.weight(v) for v in h.vertices] == [-2, 0, -1]
    assert h.edges == ((3, 7), (3, 9), (3, 9))
    assert h.next_id == g.next_id == 11  # not max(selection) + 1
    assert induced_graph(g, []).vertices == ()


def test_a_whole_selection_is_the_graph_itself():
    g = build_graph([(7, -2), (3, 0), (9, -1)], [(7, 3), (3, 9)])
    assert induced_graph(g) is g
    assert induced_graph(g, [9, 3, 7]) is g
    assert induced_graph(g, iter([3, 7, 9, 3])) is g


def _scan_neighbors(g, v, sel):
    """Neighbours of v inside sel by a pass over every edge of g."""
    out = [a + b - v for a, b in g.edges if v in (a, b) and a + b - v in sel]
    return tuple(sorted(out, key=g.vertices.index))


def _scan_shape(g, sel):
    """classify_shape recomputed from the edge list alone."""
    verts = [v for v in g.vertices if v in sel]
    edges = [(a, b) for a, b in g.edges if a in sel and b in sel]
    deg = Counter(v for e in edges for v in e)
    label = {v: i for i, v in enumerate(verts)}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            low = min(label[a], label[b])
            if (label[a], label[b]) != (low, low):
                label[a] = label[b] = low
                changed = True
    components = tuple(
        tuple(v for v in verts if label[v] == i) for i in sorted(set(label.values()))
    )
    # a (multi)graph is a forest iff peeling vertices of degree <= 1 empties it
    alive, left = set(verts), list(edges)
    while True:
        leaf = next((v for v in alive if sum(v in e for e in left) <= 1), None)
        if leaf is None:
            break
        alive.discard(leaf)
        left = [e for e in left if leaf not in e]
    is_forest = not alive
    is_tree = is_forest and len(components) == 1
    return ShapeReport(
        is_forest,
        is_tree,
        is_tree and all(deg[v] <= 2 for v in verts),
        components,
        tuple(v for v in verts if deg[v] <= 1),
        tuple(v for v in verts if deg[v] >= 3),
    )


def _assert_reads_match_scan(g, rng):
    ids = list(g.vertices)
    everything = set(ids)
    for v in ids:
        assert g.neighbors(v) == _scan_neighbors(g, v, everything)
        assert g.degree(v) == len(_scan_neighbors(g, v, everything))
    for a in ids + [g.next_id]:
        for b in ids + [g.next_id]:
            assert g.edge_multiplicity(a, b) == sum(set(e) == {a, b} for e in g.edges)
    with pytest.raises(UnknownVertex):
        g.neighbors(g.next_id)
    with pytest.raises(UnknownVertex):
        g.degree(g.next_id)
    for sel in (everything, {v for v in ids if rng.random() < 0.6}, set()):
        s = SubDivisor(g, sel)
        assert s.induced_edges() == tuple(e for e in g.edges if set(e) <= sel)
        h = induced_graph(g, sel)
        assert h.vertices == tuple(v for v in ids if v in sel)
        assert h.edges == s.induced_edges()
        assert h.next_id == g.next_id
        for v in h.vertices:
            assert h.weight(v) == g.weight(v)
            assert s.neighbors(v) == h.neighbors(v) == _scan_neighbors(g, v, sel)
            assert h.degree(v) == len(_scan_neighbors(g, v, sel))
        for v in everything - sel:
            for read in (s.neighbors, h.neighbors, h.degree, h.weight):
                with pytest.raises(UnknownVertex):
                    read(v)
        assert classify_shape(g, sel) == classify_shape(h) == _scan_shape(g, sel)
    # selections holding unknown ids: negative ones, the fresh id, repeats;
    # both readers name the same first unknown member
    low = min(ids, default=0)
    for sel in ([low - 1], [g.next_id, g.next_id], ids + ids + [g.next_id],
                [low - 1, g.next_id, low - 9] + ids, ids[:1] * 3 + [low - 2] * 2):
        with pytest.raises(UnknownVertex) as got:
            induced_graph(g, sel)
        with pytest.raises(UnknownVertex) as want:
            SubDivisor(g, sel)
        assert str(got.value) == str(want.value)


def _random_multigraph(rng):
    n = rng.randint(1, 8)
    ids = rng.sample(range(1, 30), n)
    edges = []
    if n >= 2:
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.sample(ids, 2)
            edges.extend([(a, b)] * rng.choice((1, 1, 1, 2)))
    return build_graph([(v, rng.randint(-3, 1)) for v in ids], edges)


def _random_step(rng, g):
    kind = rng.choice(["free", "edge", "down", "spawn"])
    if kind == "free":
        return blow_up(g, (rng.choice(g.vertices),))
    if kind == "edge" and g.edges:
        return blow_up(g, rng.choice(g.edges))
    if kind == "down":
        for v in rng.sample(g.vertices, len(g)):
            try:
                return blow_down(g, v)
            except DualGraphError:
                continue
    return blow_up(g)


def test_graph_reads_agree_with_edge_scans():
    rng = random.Random(4242)
    for _ in range(150):
        g = _random_multigraph(rng)
        _assert_reads_match_scan(g, rng)
        moves = []
        for _ in range(6):
            if not len(g):
                break
            g, m = _random_step(rng, g)
            moves.append(m)
            _assert_reads_match_scan(g, rng)
        # inverse blow-ups reinsert vertices mid-order
        for m in MoveLog(tuple(moves)).inverted():
            g = apply_move(g, m)
            _assert_reads_match_scan(g, rng)


def reference_walk(adj, roots=None):
    """_walk as an index loop over one shared order list.  Oracle only."""
    parent = {}
    order = []
    i = 0
    for root in adj if roots is None else roots:
        if root in parent:
            continue
        parent[root] = None
        order.append(root)
        while i < len(order):
            v = order[i]
            i += 1
            for u in adj[v]:
                if u not in parent:
                    parent[u] = v
                    order.append(u)
    return order, parent


def test_walk_matches_the_index_loop_reference():
    rng = random.Random(2727)
    split = missed = 0
    for _ in range(400):
        n = rng.randint(1, 24)
        ids = rng.sample(range(100), n)
        # few edges for the vertex count, so most graphs fall apart
        edges = []
        if n >= 2:
            for _ in range(rng.randint(0, n)):
                a, b = rng.sample(ids, 2)
                edges.extend([(a, b)] * rng.choice((1, 1, 2, 3)))
        g = build_graph([(v, 0) for v in ids], edges)
        components = len(classify_shape(g).components)
        split += components >= 3
        # a graph's index, and a draft-like adj whose neighbour lists are shuffled
        shuffled = {v: rng.sample(ns, len(ns)) for v, ns in g._index().items()}
        for adj in (g._index(), shuffled):
            rootings = [
                None,
                [],
                rng.choices(ids, k=rng.randint(1, 2 * n)),  # repeats
                rng.sample(ids, rng.randint(1, n)),  # may miss components
                list(reversed(ids)),
            ]
            for roots in rootings:
                got = _walk(adj, roots)
                assert got == reference_walk(adj, roots)
                order, parent = got
                assert len(order) == len(set(order)) == len(parent)
                missed += roots is not None and len(order) < n
        order, _parent = _walk(g._index())
        assert sorted(order) == sorted(ids)
    assert split >= 100 and missed >= 100
