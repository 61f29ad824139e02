import random
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

    counted("_walk")
    counted("fiber_key")
    assert len(fibration.enumerate_fibers(8)) == 1942
    assert calls["fiber_key"] >= 1942
    assert calls["_walk"] <= 1.25 * calls["fiber_key"]


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
    model = fibration_model(
        [fib],
        [{0: 0}],
        [("fiber", 0, 0), ("section", 0)],
    )
    assert model.rho == 2
    acc = fujita_accounting(model)
    assert acc.sections_in_boundary == 1
    assert acc.fibers_in_boundary == 1
    assert acc.horizontal_like_sum == 0
    assert acc.left == acc.right == 4


def test_singular_fiber_with_one_vertex_outside():
    f = fiber_blow_up(fiber_blow_up(initial_fiber(), 0), (0, 1))
    middle = [v for v in f.graph.vertices if f.graph.weight(v) == -1][0]
    boundary = [("fiber", 0, v) for v in f.graph.vertices if v != middle]
    boundary.append(("section", 0))
    model = fibration_model([f], [{0: [v for v in f.graph.vertices if f.multiplicity[v] == 1][0]}], boundary)
    acc = fujita_accounting(model)
    assert acc.fibers_in_boundary == 0
    assert acc.horizontal_like_sum == 0  # one vertex outside contributes 1-1
    assert acc.left == acc.right


def test_two_vertices_outside_rebalance():
    f = fiber_blow_up(fiber_blow_up(initial_fiber(), 0), (0, 1))
    keep_out = list(f.graph.vertices)[:2]
    boundary = [("fiber", 0, v) for v in f.graph.vertices if v not in keep_out]
    boundary.append(("section", 0))
    sec_vertex = [v for v in f.graph.vertices if f.multiplicity[v] == 1][0]
    model = fibration_model([f], [{0: sec_vertex}], boundary)
    acc = fujita_accounting(model)
    assert acc.horizontal_like_sum == 1
    assert acc.left == acc.right


def test_model_rejects_section_on_high_multiplicity_vertex():
    f = fiber_blow_up(fiber_blow_up(initial_fiber(), 0), (0, 1))
    middle = [v for v in f.graph.vertices if f.multiplicity[v] == 2][0]
    with pytest.raises(ModelInconsistent):
        fibration_model([f], [{0: middle}], [])


def test_model_rejects_bad_boundary_items():
    fib = smooth_fiber()
    with pytest.raises(ModelInconsistent):
        fibration_model([fib], [{0: 0}], [("fiber", 0, 99)])
    with pytest.raises(ModelInconsistent):
        fibration_model([fib], [{0: 0}], [("section", 3)])
    with pytest.raises(ModelInconsistent):
        fibration_model([fib], [{1: 0}], [])
