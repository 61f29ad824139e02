import random
import re
from collections import Counter

import pytest

from dualgraph import fibration
from dualgraph.errors import ModelInconsistent, NotAForest
from dualgraph.graph import build_graph, classify_shape, intersection_matrix
from dualgraph.lattice import discriminant, signature
from dualgraph.chains import chain_order
from dualgraph.fibration import (
    Fiber,
    FiberReport,
    enumerate_fibers,
    fiber_blow_up,
    fiber_key,
    fibration_model,
    fujita_accounting,
    initial_fiber,
    is_numerically_trivial,
    validate_fiber,
)
from dualgraph.moves import MoveLog


def types(f):
    g = f.graph
    return tuple(-g.weight(v) for v in chain_order(g))


def mults(f):
    return tuple(f.multiplicity[v] for v in chain_order(f.graph))


def test_initial_fiber():
    f = initial_fiber()
    assert len(f.graph) == 1
    assert f.graph.weight(0) == 0
    assert f.multiplicity == {0: 1}
    assert len(f.history) == 0
    assert discriminant(f.graph) == 0


def test_free_blow_up_keeps_carrier_multiplicity():
    f = fiber_blow_up(initial_fiber(), 0)
    assert types(f) == (1, 1)
    assert mults(f) == (1, 1)
    assert is_numerically_trivial(f)


def test_edge_blow_up_adds_multiplicities():
    f = fiber_blow_up(initial_fiber(), 0)
    f = fiber_blow_up(f, (0, 1))
    assert sorted(types(f)) == [1, 2, 2]
    assert f.multiplicity[max(f.graph.vertices)] == 2
    assert is_numerically_trivial(f)
    # once more between the middle and a tip: multiplicity 2+1
    mid = [v for v in f.graph.vertices if f.graph.weight(v) == -1][0]
    tip = [v for v in f.graph.neighbors(mid)][0]
    f2 = fiber_blow_up(f, (mid, tip))
    assert sorted(types(f2)) == [1, 2, 2, 3]
    assert sorted(mults(f2)) == [1, 1, 2, 3]
    assert is_numerically_trivial(f2)


def test_history_replays_from_smooth_fiber():
    f = fiber_blow_up(initial_fiber(), 0)
    f = fiber_blow_up(f, (0, 1))
    f = fiber_blow_up(f, 2)
    assert f.history.replay(initial_fiber().graph) == f.graph


def test_fiber_key_ignores_labels_and_orientation():
    # same tree built in two different orders
    a = fiber_blow_up(fiber_blow_up(initial_fiber(), 0), 0)
    b = fiber_blow_up(fiber_blow_up(initial_fiber(), 0), 1)
    assert fiber_key(a) == fiber_key(b)
    c = fiber_blow_up(fiber_blow_up(initial_fiber(), 0), (0, 1))
    assert fiber_key(a) != fiber_key(c)
    # a multiplicity for an id outside the graph is not read; the census's
    # map keeps the undone child's entry until the next blow-up
    extra = {**a.multiplicity, max(a.graph.vertices) + 1: 0}
    assert fiber_key(Fiber(a.graph, extra, a.history)) == fiber_key(a)



def reference_key(f):
    """fiber_key by the recursive encoding it replaced: each root's nested
    (label, sorted child keys), minimized over the roots.  Oracle only."""
    g = f.graph

    def enc(v, parent):
        kids = sorted(enc(u, v) for u in set(g.neighbors(v)) if u != parent)
        return ((g.weight(v), f.multiplicity[v]), tuple(kids))

    return min(enc(r, None) for r in g.vertices)


def flatten(key):
    """The flat token sequence of a nested (label, child keys) key: the
    label token (1, w, m), each child's tokens, then the close token (0,)."""
    (w, m), kids = key
    tokens = [(1, w, m)]
    for kid in kids:
        tokens.extend(flatten(kid))
    tokens.append((0,))
    return tuple(tokens)


def random_labelled_tree(rng, n, palette=None):
    """A random tree on n scattered ids, its edges shuffled.  Labels are
    drawn from palette, a list of (weight, multiplicity), when one is given."""
    ids = rng.sample(range(5 * n + 5), n)
    edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
    rng.shuffle(edges)
    if palette is None:
        g = build_graph([(v, rng.randint(-3, 1)) for v in ids], edges)
        return Fiber(g, {v: rng.randint(1, 3) for v in ids}, MoveLog())
    label = {v: rng.choice(palette) for v in ids}
    g = build_graph([(v, label[v][0]) for v in ids], edges)
    return Fiber(g, {v: label[v][1] for v in ids}, MoveLog())


def test_fiber_key_matches_the_recursive_reference():
    for f in enumerate_fibers(7):
        assert fiber_key(f) == flatten(reference_key(f))
    rng = random.Random(2024)
    for _ in range(2000):
        f = random_labelled_tree(rng, rng.randint(1, 12))
        assert fiber_key(f) == flatten(reference_key(f))
        # one label and one close token per vertex: keys of unequal sizes
        # differ, which lets the census dedup one size level at a time
        assert len(fiber_key(f)) == 2 * len(f.graph)


def test_fiber_key_orders_pairs_like_the_reference():
    # one- and two-label palettes make many roots tie for the least label,
    # and small trees on one label make many pairs isomorphic
    palettes = [None, [(-2, 1)], [(-2, 1), (-1, 2)], [(-2, 1), (-2, 2)]]
    rng = random.Random(13)
    outcomes = Counter()
    for _ in range(3000):
        palette = rng.choice(palettes)
        a, b = (random_labelled_tree(rng, rng.randint(1, 9), palette) for _ in range(2))
        ka, kb = fiber_key(a), fiber_key(b)
        ra, rb = reference_key(a), reference_key(b)
        assert (ka < kb) == (ra < rb)
        assert (ka == kb) == (ra == rb)
        outcomes[(ka > kb) - (ka < kb)] += 1
    assert min(outcomes[-1], outcomes[0], outcomes[1]) >= 50


def edge_blow_up_chain(n):
    """A chain fiber of n vertices: blow up the 0-curve at a free point, then
    keep blowing up the edge between the old curve, 0, and the newest
    vertex, which is the (-1)-vertex."""
    f = fiber_blow_up(initial_fiber(), 0)
    while len(f.graph) < n:
        f = fiber_blow_up(f, (0, f.history.moves[-1].vertex))
    return f


def test_fiber_key_on_a_2000_vertex_chain_fiber():
    n = 2000
    f = edge_blow_up_chain(n)
    assert validate_fiber(f).ok
    labels = [(1, 1 - n, 1), (1, -1, n - 1)] + [(1, -2, k) for k in range(n - 2, 0, -1)]
    assert fiber_key(f) == tuple(labels) + ((0,),) * n


def test_fiber_key_on_a_500_vertex_chain_of_equal_labels():
    # every root ties, and a nested key this deep overflowed the stack when
    # two were compared; the least key hangs a one-vertex branch first
    n = 500
    g = build_graph([(v, -2) for v in range(n)], [(v, v + 1) for v in range(n - 1)])
    f = Fiber(g, {v: 1 for v in range(n)}, MoveLog())
    label, close = (1, -2, 1), (0,)
    want = (label, label, close) + (label,) * (n - 2) + (close,) * (n - 2) + (close,)
    assert fiber_key(f) == want


def test_fiber_key_walks_about_once_per_call(monkeypatch):
    calls = Counter()

    def counted(name):
        inner = getattr(fibration, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(fibration, name, wrapper)

    # _tree_key is the keying step that fiber_key and the census share
    counted("_walk")
    counted("_tree_key")
    assert len(fibration.enumerate_fibers(8)) == 1942
    assert calls["_tree_key"] >= 1942
    assert calls["_walk"] <= 1.25 * calls["_tree_key"]


def test_census_opens_one_draft_per_expanded_parent(monkeypatch):
    # every child is keyed once on its parent's draft, patched and then
    # undone; the smooth fiber is built outright and never keyed, as no other
    # class has its size; each parent below the size bound opens one draft,
    # and fiber_key is never called
    calls = Counter()
    draft, tree_key, key = fibration._Draft, fibration._tree_key, fibration.fiber_key

    def counted_draft(*args):
        calls["_Draft"] += 1
        return draft(*args)

    def counted_tree_key(*args):
        calls["_tree_key"] += 1
        return tree_key(*args)

    def counted_key(*args):
        calls["fiber_key"] += 1
        return key(*args)

    monkeypatch.setattr(fibration, "_Draft", counted_draft)
    monkeypatch.setattr(fibration, "_tree_key", counted_tree_key)
    monkeypatch.setattr(fibration, "fiber_key", counted_key)
    assert len(enumerate_fibers(8)) == 1942
    assert calls == {"_Draft": 417, "_tree_key": 5141}
    assert calls["fiber_key"] == 0


def reference_enumerate(max_vertices):
    """enumerate_fibers by the loop it replaced: fiber_blow_up and fiber_key
    for every child, each child a frozen Fiber.  Oracle only."""
    start = initial_fiber()
    classes = {fiber_key(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for f in frontier:
            if len(f.graph) >= max_vertices:
                continue
            positions = list(f.graph.vertices) + sorted(set(f.graph.edges))
            for pos in positions:
                child = fiber_blow_up(f, pos)
                key = fiber_key(child)
                if key not in classes:
                    classes[key] = child
                    nxt.append(child)
        frontier = nxt
    ordered = sorted(classes.items(), key=lambda kf: (len(kf[1].graph), kf[0]))
    return [f for _key, f in ordered]


def representative(f):
    g = f.graph
    return (g.vertices, [g.weight(v) for v in g.vertices], g.edges, g.next_id,
            list(f.multiplicity.items()), f.history.moves)


@pytest.mark.parametrize("max_vertices", range(1, 9))
def test_census_matches_the_blow_up_and_key_reference(max_vertices):
    got = [representative(f) for f in enumerate_fibers(max_vertices)]
    assert got == [representative(f) for f in reference_enumerate(max_vertices)]


def test_census_builds_one_graph_per_class(monkeypatch):
    # children are keyed on their parent's draft and only a new class is
    # frozen; the smooth fiber is built outright
    built = Counter()
    init = fibration.WeightedGraph.__init__
    trusted = fibration.WeightedGraph._trusted

    def counted_init(self, *args):
        built["graphs"] += 1
        init(self, *args)

    def counted_trusted(cls, *args):
        built["graphs"] += 1
        return trusted(*args)

    # every construction path: the constructor and the draft's freeze
    monkeypatch.setattr(fibration.WeightedGraph, "__init__", counted_init)
    monkeypatch.setattr(fibration.WeightedGraph, "_trusted", classmethod(counted_trusted))
    assert len(enumerate_fibers(8)) == 1942
    assert built["graphs"] == 1942


def test_enumerate_order_is_size_then_reference_key():
    fs = enumerate_fibers(8)
    sort_keys = [(len(f.graph), reference_key(f)) for f in fs]
    assert sort_keys == sorted(sort_keys)
    assert len(set(sort_keys)) == len(fs)


@pytest.mark.parametrize("weights, edges", [
    ([(0, -2), (1, -2), (2, -2)], [(0, 1), (1, 2), (2, 0)]),
    ([(0, -2), (1, -2)], [(0, 1), (0, 1)]),
    # V - 1 edges, yet not connected: an edge count alone accepts it
    ([(0, -2), (1, -2), (2, -2), (3, 0)], [(0, 1), (1, 2), (2, 0)]),
    ([(3, 0), (0, -2), (1, -2), (2, -2)], [(0, 1), (1, 2), (2, 0)]),
    ([], []),
], ids=["triangle", "double-edge", "triangle-plus-point", "point-plus-triangle", "empty"])
def test_fiber_key_rejects_non_trees(weights, edges):
    f = Fiber(build_graph(weights, edges), {v: 1 for v, _w in weights}, MoveLog())
    with pytest.raises(NotAForest):
        fiber_key(f)


def test_enumerate_small_budgets():
    with pytest.raises(ValueError, match="at least 1"):
        enumerate_fibers(0)
    assert len(enumerate_fibers(1)) == 1
    assert len(enumerate_fibers(2)) == 2
    fs = enumerate_fibers(3)
    assert len(fs) == 4
    triples = [f for f in fs if len(f.graph) == 3]
    got = {(types(f), mults(f)) for f in triples}
    assert got == {((2, 1, 2), (1, 2, 1)), ((1, 2, 1), (1, 1, 1))}


def test_enumerate_counts_grow_deterministically():
    fs = enumerate_fibers(6)
    per = {}
    for f in fs:
        per[len(f.graph)] = per.get(len(f.graph), 0) + 1
    assert per == {1: 1, 2: 1, 3: 2, 4: 5, 5: 18, 6: 70}
    # same call, same representatives
    again = enumerate_fibers(6)
    assert [fiber_key(f) for f in again] == [fiber_key(f) for f in fs]
    assert [f.history.moves for f in again] == [f.history.moves for f in fs]


def test_all_enumerated_fibers_validate():
    for f in enumerate_fibers(6):
        report = validate_fiber(f)
        assert report.ok, report.violations
        assert is_numerically_trivial(f)
        assert discriminant(f.graph) == 0
        # multiplicity vector spans the one-dimensional kernel
        assert signature(f.graph)[1] == 1


def test_unique_minus_one_chain_fibers_balance_side_discriminants():
    seen = 0
    for f in enumerate_fibers(6):
        g = f.graph
        if not classify_shape(g).is_chain:
            continue
        ones = [v for v in g.vertices if g.weight(v) == -1]
        if len(ones) != 1:
            continue
        order = list(chain_order(g))
        i = order.index(ones[0])
        left, right = order[:i], order[i + 1:]
        d_left = discriminant(g, left) if left else 1
        d_right = discriminant(g, right) if right else 1
        assert d_left == d_right == f.multiplicity[ones[0]]
        seen += 1
    assert seen >= 5


def test_validate_flags_branching_minus_one():
    g = build_graph(
        [(0, -1), (1, -2), (2, -2), (3, -2)], [(0, 1), (0, 2), (0, 3)]
    )
    f = Fiber(g, {0: 1, 1: 1, 2: 1, 3: 1}, MoveLog())
    report = validate_fiber(f)
    assert not report.ok
    assert any("branches" in v for v in report.violations)


def dense_q_times_m_is_zero(f):
    """Q m = 0 with the dense intersection matrix. Oracle only."""
    q = intersection_matrix(f.graph)
    m = [f.multiplicity[v] for v in f.graph.vertices]
    return all(sum(x * y for x, y in zip(row, m)) == 0 for row in q)


def test_numerical_triviality_matches_dense_product():
    # every fiber up to 6 vertices, and each with one multiplicity raised,
    # which leaves the kernel of Q unless Q = 0 (the smooth fiber)
    for f in enumerate_fibers(6):
        assert is_numerically_trivial(f) and dense_q_times_m_is_zero(f)
        for v in f.graph.vertices:
            bumped = Fiber(f.graph, {**f.multiplicity, v: f.multiplicity[v] + 1}, f.history)
            assert is_numerically_trivial(bumped) == dense_q_times_m_is_zero(bumped) == (
                len(f.graph) == 1)
    # parallel edges count once each: two (-2)-curves meeting twice
    double = Fiber(build_graph([(0, -2), (1, -2)], [(0, 1), (0, 1)]), {0: 1, 1: 1}, MoveLog())
    assert is_numerically_trivial(double) and dense_q_times_m_is_zero(double)


def test_validate_flags_non_tree_and_bad_multiplicity():
    g = build_graph([(0, -2), (1, -2)], [(0, 1), (0, 1)])
    f = Fiber(g, {0: 1, 1: 1}, MoveLog())
    report = validate_fiber(f)
    assert any("tree" in v for v in report.violations)
    g2 = build_graph([(0, -1), (1, -1)], [(0, 1)])
    f2 = Fiber(g2, {0: 1, 1: 2}, MoveLog())
    report2 = validate_fiber(f2)
    assert any("numerically trivial" in v for v in report2.violations)


def hand_fiber(weights, edges, multiplicity):
    return Fiber(build_graph(list(enumerate(weights)), edges), dict(enumerate(multiplicity)),
                 MoveLog())


@pytest.mark.parametrize("fiber, message", [
    # the (-1)-vertex 0 of degree three leaves three arms
    (hand_fiber([-1, -2, -2, -2], [(0, 1), (0, 2), (0, 3)], [2, 1, 1, 1]),
     "complement of the (-1)-vertex has more than two components"),
    # 1 and 2 each branch inside their side of 0
    (hand_fiber([-1, -4, -4, -2, -2, -2, -2, -2, -2],
                [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (2, 8)],
                [2, 1, 1, 1, 1, 1, 1, 1, 1]),
     "neither complement component is a chain"),
    # a fork: tip 3 hangs off 1 on one side of 0, tip 2 is the other side
    (hand_fiber([-1, -3, -2, -2, -2], [(0, 1), (0, 2), (1, 3), (1, 4)], [2, 2, 1, 1, 2]),
     "multiplicity-1 tips split across complement components"),
    (hand_fiber([-1, -2], [(0, 1)], [2, 2]),
     "expected two multiplicity-1 components, found 0"),
    (hand_fiber([-2, -1, -2], [(0, 1), (1, 2)], [1, 1, 2]),
     "a multiplicity-1 component is not a tip"),
    (hand_fiber([-2], [], [1]), "discriminant is not zero"),
])
def test_validate_names_each_violation(fiber, message):
    report = validate_fiber(fiber)
    assert message in report.violations
    assert report.second_tier_applies == (message != "discriminant is not zero")


def reference_validate(f):
    """validate_fiber by the induced-graph checks it replaced: classify_shape
    on the fiber, on the complement of its (-1)-vertex and on each
    complement component.  Oracle only."""
    g = f.graph
    bad = []
    shape = classify_shape(g)
    if not shape.is_tree:
        bad.append("fiber graph is not a tree")
    for v in g.vertices:
        if g.weight(v) == -1 and g.degree(v) >= 3:
            bad.append(f"(-1)-vertex {v} branches")
    if shape.is_tree and discriminant(g) != 0:
        bad.append("discriminant is not zero")
    if not dense_q_times_m_is_zero(f):
        bad.append("multiplicity vector is not numerically trivial")
    minus_ones = [v for v in g.vertices if g.weight(v) == -1]
    second = shape.is_tree and len(minus_ones) == 1
    if second:
        center = minus_ones[0]
        comps = classify_shape(g, [v for v in g.vertices if v != center]).components
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
            homes = [i for v in ones for i, c in enumerate(comps) if v in c]
            if len(homes) == 2 and homes[0] != homes[1]:
                bad.append("multiplicity-1 tips split across complement components")
    return tuple(bad), second


def perturbed(rng, f):
    """f on shuffled fresh ids, with up to three edits: a weight or a
    multiplicity moved by one (a weight often to -1), an edge added (a
    parallel one, a cycle or a bridge to a new isolated vertex) or removed."""
    g = f.graph
    ids = rng.sample(range(40), len(g) + 1)
    rename = dict(zip(g.vertices, ids))
    order = [rename[v] for v in g.vertices]
    rng.shuffle(order)
    weight = {rename[v]: g.weight(v) for v in g.vertices}
    mult = {rename[v]: f.multiplicity[v] for v in g.vertices}
    edges = [(rename[a], rename[b]) for a, b in g.edges]
    for _ in range(rng.randint(0, 3)):
        v = rng.choice(order)
        edit = rng.randrange(6)
        if edit == 0:
            weight[v] = -1 if rng.random() < 0.5 else weight[v] + rng.choice((-1, 1))
        elif edit == 1:
            mult[v] = max(1, mult[v] + rng.choice((-1, 1)))
        elif edit == 2 and len(order) > 1:
            edges.append(tuple(rng.sample(order, 2)))
        elif edit == 3 and edges:
            edges.pop(rng.randrange(len(edges)))
        elif edit == 4 and ids[-1] not in weight:
            order.append(ids[-1])
            weight[ids[-1]], mult[ids[-1]] = rng.randint(-3, 0), rng.randint(1, 2)
        elif edit == 5 and edges:
            edges.append(rng.choice(edges))
    return Fiber(build_graph([(v, weight[v]) for v in order], edges),
                 {v: mult[v] for v in order}, MoveLog())


def random_multigraph_fiber(rng):
    """0-8 vertices on scattered ids, random edges with repeats, weights
    crowded at -1 and -2, multiplicities 1-3."""
    n = rng.randint(0, 8)
    ids = rng.sample(range(30), n)
    edges = []
    if n > 1:
        edges = [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, n + 2))]
    g = build_graph([(v, rng.choice((-1, -1, -2, -2, -3, 0, 1))) for v in ids], edges)
    return Fiber(g, {v: rng.randint(1, 3) for v in ids}, MoveLog())


def random_minus_one_tree(rng):
    """A random tree of 1-8 vertices with one or two (-1)-vertices and
    multiplicities mostly 1 or 2, so the second tier runs often."""
    n = rng.randint(1, 8)
    return random_labelled_tree(rng, n, [(-1, 2), (-2, 1), (-2, 2), (-3, 1), (-2, 1)])


def random_two_sided_fiber(rng):
    """A unique (-1)-vertex joining two random trees of 1-4 vertices, half
    of the 4-vertex ones stars, sometimes with a third side of one vertex.
    Both sides can branch only from 9 vertices on."""
    ids = rng.sample(range(30), 10)
    center = ids.pop()
    verts, edges = [center], []
    for size in (rng.randint(1, 4), rng.randint(1, 4), rng.choice((0, 0, 0, 1))):
        side, ids = ids[:size], ids[size:]
        if size == 4 and rng.random() < 0.5:
            hub = rng.choice(side)
            edges += [(hub, v) for v in side if v != hub]
        else:
            edges += [(side[i], side[rng.randrange(i)]) for i in range(1, size)]
        if side:
            edges.append((center, side[0]))
        verts += side
    weight = {v: rng.choice((-2, -2, -3)) for v in verts}
    weight[center] = -1
    g = build_graph([(v, weight[v]) for v in verts], edges)
    return Fiber(g, {v: rng.randint(1, 2) for v in verts}, MoveLog())


def test_validation_matches_the_induced_graph_reference():
    fibers = enumerate_fibers(9)
    assert len(fibers) == 9645
    for f in fibers:
        report = validate_fiber(f)
        assert (report.violations, report.second_tier_applies) == reference_validate(f)
    rng = random.Random(18)
    small = [f for f in fibers if len(f.graph) <= 7]
    seen = Counter()
    makers = [lambda: perturbed(rng, rng.choice(small)),
              lambda: random_multigraph_fiber(rng),
              lambda: random_minus_one_tree(rng),
              lambda: random_two_sided_fiber(rng)]
    for i in range(28000):
        f = makers[i % 4]()
        report = validate_fiber(f)
        want = reference_validate(f)
        assert (report.violations, report.second_tier_applies) == want, f.graph
        seen.update(re.sub(r"\d+", "N", message) for message in want[0])
        seen["second tier"] += want[1]
    # every violation and the second tier occur often among the random inputs
    assert len(seen) == 10 and min(seen.values()) >= 50, seen


def test_second_tier_applies_only_to_unique_minus_one():
    f = fiber_blow_up(initial_fiber(), 0)            # two (-1)-vertices
    assert not validate_fiber(f).second_tier_applies
    f2 = fiber_blow_up(f, (0, 1))                    # unique (-1)
    assert validate_fiber(f2).second_tier_applies
    assert validate_fiber(f2).ok


# ------------------------------------------------------------------ models


def smooth_fiber():
    return initial_fiber()


def test_trivial_model_accounting():
    fib = smooth_fiber()
    model = fibration_model([fib], [{0: 0}], {0}, [{0}])
    assert model.rho == 2
    acc = fujita_accounting(model)
    assert acc.sections_in_boundary == 1
    assert acc.fibers_in_boundary == 1
    assert acc.horizontal_like_sum == 0
    assert acc.left == acc.right == 4


def test_singular_fiber_with_one_vertex_outside():
    f = fiber_blow_up(fiber_blow_up(initial_fiber(), 0), (0, 1))
    middle = [v for v in f.graph.vertices if f.graph.weight(v) == -1][0]
    inside = [v for v in f.graph.vertices if v != middle]
    sec_vertex = [v for v in f.graph.vertices if f.multiplicity[v] == 1][0]
    model = fibration_model([f], [{0: sec_vertex}], {0}, [inside])
    acc = fujita_accounting(model)
    assert acc.fibers_in_boundary == 0
    assert acc.horizontal_like_sum == 0  # one vertex outside contributes 1-1
    assert acc.left == acc.right


def test_two_vertices_outside_rebalance():
    f = fiber_blow_up(fiber_blow_up(initial_fiber(), 0), (0, 1))
    keep_out = list(f.graph.vertices)[:2]
    inside = [v for v in f.graph.vertices if v not in keep_out]
    sec_vertex = [v for v in f.graph.vertices if f.multiplicity[v] == 1][0]
    model = fibration_model([f], [{0: sec_vertex}], {0}, [inside])
    acc = fujita_accounting(model)
    assert acc.horizontal_like_sum == 1
    assert acc.left == acc.right


def test_model_rejects_section_on_high_multiplicity_vertex():
    f = fiber_blow_up(fiber_blow_up(initial_fiber(), 0), (0, 1))
    middle = [v for v in f.graph.vertices if f.multiplicity[v] == 2][0]
    with pytest.raises(ModelInconsistent):
        fibration_model([f], [{0: middle}], (), [()])


def test_model_rejects_bad_boundary_items():
    fib = smooth_fiber()
    with pytest.raises(ModelInconsistent, match="unknown vertex 99 of fiber 0"):
        fibration_model([fib], [{0: 0}], (), [{99}])
    with pytest.raises(ModelInconsistent, match="unknown section 3"):
        fibration_model([fib], [{0: 0}], {3}, [()])
    with pytest.raises(ModelInconsistent):
        fibration_model([fib], [{1: 0}], (), [()])


@pytest.mark.parametrize("vertex_sets", [[], [{0}, ()]])
def test_model_needs_one_boundary_vertex_set_per_fiber(vertex_sets):
    with pytest.raises(ModelInconsistent, match="vertex sets for 1 fibers"):
        fibration_model([smooth_fiber()], [{0: 0}], {0}, vertex_sets)


def test_accounting_reads_the_typed_boundary():
    f = fiber_blow_up(fiber_blow_up(initial_fiber(), 0), (0, 1))
    model = fibration_model([f, smooth_fiber()], [], (), [f.graph.vertices[1:], {0}])
    assert model.boundary_sections == frozenset()
    assert model.boundary_vertices == (frozenset(f.graph.vertices[1:]), frozenset({0}))
    acc = fujita_accounting(model)
    assert (acc.sections_in_boundary, acc.fibers_in_boundary, acc.horizontal_like_sum,
            acc.boundary_size, acc.rho) == (0, 1, 0, 3, 4)
