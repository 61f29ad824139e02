import random
import sys
from itertools import combinations

import pytest

from dualgraph.errors import NotAForest
from dualgraph.fibration import enumerate_fibers
from dualgraph.graph import build_graph, classify_shape, intersection_matrix
from dualgraph.intmat import det_bareiss, smith_normal_form
from dualgraph.lattice import (
    _congruence_pass,
    _unit_pivots,
    EMPTY,
    INDEFINITE,
    NEGATIVE_DEFINITE,
    NEGATIVE_SEMIDEFINITE,
    definiteness,
    discriminant,
    discriminant_by_splitting,
    is_quotient_type,
    signature,
    smith_invariants,
)
from dualgraph.resolution import CuspPair, theorem_pipeline

from test_graph import chain
from test_intmat import det_naive, determinantal_factors, symmetric_signature


def test_discriminant_known():
    assert discriminant(chain([]), []) == 1
    assert discriminant(build_graph([(1, -2)], [])) == 2
    assert discriminant(build_graph([(1, -5)], [])) == 5
    assert discriminant(chain([0, 0])) == -1
    for k in range(1, 21):
        assert discriminant(chain([-2] * k)) == k + 1


def test_discriminant_empty_graph():
    g = build_graph([], [])
    assert discriminant(g) == 1


def test_type_2_a_2_formula():
    # the three-vertex chain with outer weights -2: d = 4(a-1), always even
    for a in range(-10, 11):
        g = chain([-2, -a, -2])
        d = discriminant(g)
        assert d == 4 * (a - 1)
        assert d % 2 == 0


def test_disjoint_union_multiplies():
    g = build_graph([(1, -2), (2, -3), (3, 0), (4, 0)], [(3, 4)])
    assert discriminant(g) == 2 * 3 * -1


def test_splitting_known():
    assert discriminant_by_splitting(chain([-2, -2, -3])) == 7
    assert discriminant_by_splitting(chain([0, 0])) == -1
    assert discriminant_by_splitting(build_graph([(1, -5)], [])) == 5


def bareiss_discriminant(g, selection=None):
    """det(-Q) by the dense Bareiss kernel, which the forest pass never calls."""
    return det_bareiss([[-x for x in row] for row in intersection_matrix(g, selection)])


def test_splitting_matches_direct_random_trees():
    rng = random.Random(77)
    for _ in range(120):
        n = rng.randint(1, 9)
        vs = [(i, rng.randint(-5, 2)) for i in range(1, n + 1)]
        es = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
        g = build_graph(vs, es)
        assert discriminant_by_splitting(g) == bareiss_discriminant(g)
        # and on a random subselection (a forest)
        sel = [i for i in range(1, n + 1) if rng.random() < 0.6]
        assert discriminant_by_splitting(g, sel) == bareiss_discriminant(g, sel)


def test_splitting_rejects_cycles():
    tri = build_graph([(1, 0), (2, 0), (3, 0)], [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(NotAForest):
        discriminant_by_splitting(tri)
    dbl = build_graph([(1, 0), (2, 0)], [(1, 2), (1, 2)])
    with pytest.raises(NotAForest):
        discriminant_by_splitting(dbl)


def continuant(weights):
    """det(-Q) of the chain with these weights, by the three-term recurrence."""
    before, d = 0, 1
    for w in weights:
        before, d = d, -w * d - before
    return d


def fork(center, arms):
    """Centre 0 with chain arms listed outward; the first arm's far tip is
    the first vertex, so a pass rooted there does not start at the centre."""
    weight, arm_ids, nxt = {0: center}, [], 1
    for arm in arms:
        arm_ids.append(list(range(nxt, nxt + len(arm))))
        weight.update(zip(arm_ids[-1], arm))
        nxt += len(arm)
    order = arm_ids[0][::-1] + [0] + [v for ids in arm_ids[1:] for v in ids]
    edges = [(0, ids[0]) for ids in arm_ids]
    edges += [(x, y) for ids in arm_ids for x, y in zip(ids, ids[1:])]
    return build_graph([(v, weight[v]) for v in order], edges)


def fork_discriminant(center, arms):
    """Expansion at the centre: -w prod d(A_i) - sum d(A_i - a_i) prod_{j != i} d(A_j)."""
    whole = [continuant(arm) for arm in arms]
    pruned = [continuant(arm[1:]) for arm in arms]
    return -center * whole[0] * whole[1] * whole[2] - sum(
        pruned[i] * whole[(i + 1) % 3] * whole[(i + 2) % 3] for i in range(3))


def test_splitting_on_long_chains_and_forks():
    rng = random.Random(2000)
    for _ in range(20):  # the oracles themselves, against Bareiss
        ws = [rng.randint(-5, 3) for _ in range(rng.randint(1, 7))]
        assert continuant(ws) == bareiss_discriminant(chain(ws))
        center = rng.randint(-5, 3)
        arms = [[rng.randint(-5, 3) for _ in range(rng.randint(1, 3))] for _ in range(3)]
        assert fork_discriminant(center, arms) == bareiss_discriminant(fork(center, arms))
    ws = [rng.randint(-5, 3) for _ in range(2000)]
    assert discriminant_by_splitting(chain(ws)) == continuant(ws)
    center = rng.randint(-5, 3)
    arms = [[rng.randint(-5, 3) for _ in range(k)] for k in (667, 666, 666)]
    assert discriminant_by_splitting(fork(center, arms)) == fork_discriminant(center, arms)


def test_splitting_is_ring_generic():
    sympy = pytest.importorskip("sympy")
    ws = sympy.symbols("w1 w2 w3 w4")
    g = build_graph(
        [(i + 1, ws[i]) for i in range(4)],
        [(1, 2), (2, 3), (2, 4)],
    )
    got = sympy.expand(discriminant_by_splitting(g))
    q = sympy.Matrix(
        [
            [ws[0], 1, 0, 0],
            [1, ws[1], 1, 1],
            [0, 1, ws[2], 0],
            [0, 1, 0, ws[3]],
        ]
    )
    want = sympy.expand((-q).det())
    assert sympy.simplify(got - want) == 0


def test_definiteness_known():
    assert definiteness(chain([-2, -2])) == NEGATIVE_DEFINITE
    assert definiteness(build_graph([(1, 0)], [])) == NEGATIVE_SEMIDEFINITE
    assert definiteness(chain([-2, -1, -2])) == NEGATIVE_SEMIDEFINITE
    assert definiteness(chain([0, 0])) == INDEFINITE
    assert definiteness(build_graph([(1, 1)], [])) == INDEFINITE
    assert definiteness(chain([-2]), []) == EMPTY


def minor_criterion(g):
    """Definiteness from every principal minor of -Q. Oracle only."""
    neg = [[-x for x in row] for row in intersection_matrix(g)]
    n = len(neg)
    if n == 0:
        return EMPTY
    minors = [det_naive([[neg[i][j] for j in idx] for i in idx])
              for k in range(1, n + 1) for idx in combinations(range(n), k)]
    if all(d > 0 for d in minors):
        return NEGATIVE_DEFINITE
    if all(d >= 0 for d in minors):
        return NEGATIVE_SEMIDEFINITE
    return INDEFINITE


def test_definiteness_matches_principal_minor_criterion():
    rng = random.Random(17)
    graphs = [f.graph for f in enumerate_fibers(5)]
    for _ in range(400):
        size = rng.randint(0, 6)
        weights = {i: rng.randint(-4, 1) for i in range(size)}
        edges = [(a, b) for a in range(size) for b in range(a + 1, size)
                 for _ in range(rng.choice((0, 0, 1, 1, 2)))]
        graphs.append(build_graph(weights, edges))
    seen = set()
    for g in graphs:
        want = minor_criterion(g)
        assert definiteness(g) == want
        seen.add(want)
    assert seen == {EMPTY, NEGATIVE_DEFINITE, NEGATIVE_SEMIDEFINITE, INDEFINITE}


def test_minimal_definite_chains_have_weights_below_minus_one():
    # any chain entry >= -1 spoils negative definiteness unless it is a
    # contractible (-1); exhaustive over short chains
    for w1 in range(-4, 2):
        for w2 in range(-4, 2):
            g = chain([w1, w2])
            if definiteness(g) == NEGATIVE_DEFINITE and -1 not in (w1, w2):
                assert w1 <= -2 and w2 <= -2


def test_signature_basics():
    assert signature(build_graph([(1, 0)], [])) == (0, 1, 0)
    assert signature(chain([0, 0])) == (1, 0, 1)
    assert signature(chain([-2, -2])) == (0, 0, 2)
    assert signature(chain([-2, -1, -2])) == (0, 1, 2)


def test_smith_invariants_known():
    assert smith_invariants(build_graph([(1, -2)], [])).invariant_factors == (2,)
    inv = smith_invariants(chain([0, 0]))
    assert inv.invariant_factors == (1, 1)
    assert inv.torsion_order == 1
    assert inv.discriminant == -1
    inv = smith_invariants(chain([-2, -2]))
    assert inv.invariant_factors == (1, 3)
    assert inv.torsion_order == 3 == abs(inv.discriminant)
    assert inv.definiteness == NEGATIVE_DEFINITE


def test_smith_order_matches_discriminant_random():
    # a tree plus extra random edges, so cycles and parallel edges occur;
    # the Bareiss discriminant and the signature-based definiteness are
    # the oracles for the values read off one characteristic polynomial
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 7)
        vs = [(i, rng.randint(-5, 2)) for i in range(1, n + 1)]
        es = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
        if n >= 2:
            es += [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 3))]
        g = build_graph(vs, es)
        inv = smith_invariants(g)
        assert inv.discriminant == discriminant(g)
        assert inv.definiteness == definiteness(g)
        if inv.discriminant != 0:
            assert inv.torsion_order == abs(inv.discriminant)
        else:
            assert 0 in inv.invariant_factors


def test_quotient_type_chain():
    r = is_quotient_type(chain([-2, -2, -2]))
    assert r.ok and r.kind == "cyclic" and not r.has_minus_one


def test_quotient_type_rejects_indefinite():
    r = is_quotient_type(chain([0, 0]))
    assert not r.ok and r.kind is None


def test_quotient_type_fork():
    g = build_graph(
        [(1, -2), (2, -2), (3, -2), (4, -2)],
        [(1, 2), (1, 3), (1, 4)],
    )
    assert discriminant(g) == 4
    r = is_quotient_type(g)
    assert r.ok and r.kind == "fork"
    assert r.twig_discriminants == (2, 2, 2)


def test_quotient_type_flags_minus_one():
    g = build_graph(
        [(1, -2), (2, -1), (3, -3), (4, -5)],
        [(1, 2), (1, 3), (1, 4)],
    )
    r = is_quotient_type(g)
    if r.ok:
        assert r.has_minus_one


def test_quotient_type_degree_four_center_is_not_fork():
    g = build_graph(
        [(1, -3), (2, -2), (3, -2), (4, -2), (5, -2)],
        [(1, 2), (1, 3), (1, 4), (1, 5)],
    )
    assert definiteness(g) == NEGATIVE_DEFINITE
    assert not is_quotient_type(g).ok


# ------------------------------------------------- forest pass against dense oracles

def random_forest(rng, size, weights=(-3, 2)):
    """Vertices 0..size-1; each later vertex hangs off an earlier one, or starts a tree."""
    spec = [(v, rng.randint(*weights)) for v in range(size)]
    edges = [(rng.randrange(v), v) for v in range(1, size) if rng.random() < 0.85]
    return build_graph(spec, edges)


def test_forest_inertia_matches_berkowitz_random_forests():
    # weights in -3..2 make zero pivots common: many forests are singular,
    # some with nullity 2 or more, which the zero-child rule has to count
    rng = random.Random(2011)
    singular = nullity_two = 0
    for _ in range(2000):
        g = random_forest(rng, rng.randint(0, 12))
        sel = None if rng.random() < 0.5 else [v for v in g.vertices if rng.random() < 0.7]
        want = symmetric_signature(intersection_matrix(g, sel))
        assert signature(g, sel) == want
        d = bareiss_discriminant(g, sel)
        assert discriminant(g, sel) == d
        assert (d == 0) == (want[1] > 0)
        inv = smith_invariants(g, sel)
        assert inv.discriminant == d
        assert inv.definiteness == definiteness(g, sel)
        singular += want[1] > 0
        nullity_two += want[1] >= 2
    assert singular > 300 and nullity_two > 20


def test_forest_inertia_on_every_small_fiber():
    # a fiber's intersection form is negative semidefinite of nullity one
    fibers = enumerate_fibers(7)
    assert len(fibers) == 417
    for f in fibers:
        n = len(f.graph)
        assert signature(f.graph) == (0, 1, n - 1) == symmetric_signature(
            intersection_matrix(f.graph))
        assert definiteness(f.graph) == NEGATIVE_SEMIDEFINITE
        assert discriminant(f.graph) == 0


def test_cycles_and_parallel_edges_take_the_congruence_pass():
    rng = random.Random(3)
    cyclic = 0
    for _ in range(400):
        g = random_forest(rng, rng.randint(2, 9), weights=(-4, 2))
        extra = [tuple(rng.sample(g.vertices, 2)) for _ in range(rng.randint(1, 3))]
        g = build_graph([(v, g.weight(v)) for v in g.vertices], list(g.edges) + extra)
        sel = None if rng.random() < 0.5 else [v for v in g.vertices if rng.random() < 0.8]
        q = intersection_matrix(g, sel)
        d = bareiss_discriminant(g, sel)
        assert discriminant(g, sel) == d
        assert signature(g, sel) == symmetric_signature(q)
        inv = smith_invariants(g, sel)
        assert (inv.discriminant, inv.definiteness) == (d, definiteness(g, sel))
        assert inv.invariant_factors == tuple(smith_normal_form(q))
        if classify_shape(g, sel).is_forest:
            assert discriminant_by_splitting(g, sel) == d
        else:
            cyclic += 1
            with pytest.raises(NotAForest):
                discriminant_by_splitting(g, sel)
    assert cyclic > 200


def prefix_continuants(weights):
    """[d(w[:0]), d(w[:1]), ..., d(w)]: leading principal minors of -Q on a chain."""
    out, before, d = [1], 0, 1
    for w in weights:
        before, d = d, -w * d - before
        out.append(d)
    return out


def fork_leading_minors(center, arms):
    """Leading principal minors of -Q for fork(center, arms), in its vertex order.

    The first rows are the chain arm 1 (reversed), centre, arm 2; each
    further row adds the next vertex of arm 3, and the splitting rule at
    the edge from the centre gives d(spine) d(A) - d(spine - centre) d(A - a).
    """
    a1, a2, a3 = arms
    head = prefix_continuants(a1[::-1] + [center] + a2)
    without_center = continuant(a1) * continuant(a2)
    whole, pruned = prefix_continuants(a3), prefix_continuants(a3[1:])
    return head + [head[-1] * whole[k] - without_center * pruned[k - 1]
                   for k in range(1, len(a3) + 1)]


def jacobi_inertia(minors):
    """Inertia of a nonsingular Q from the leading minors 1, D_1, ..., D_n of -Q.

    Jacobi: -Q has as many negative eigenvalues as the sequence has sign
    changes, and each is a positive eigenvalue of Q.  Frobenius: a zero
    D_k between nonzero neighbours may be dropped, since those neighbours
    then have opposite signs.  Two zeros in a row do not occur on a chain,
    where D_k = 0 gives D_{k+1} = -D_{k-1}.
    """
    assert minors[-1] != 0
    assert all(a or b for a, b in zip(minors, minors[1:]))
    signs = [m > 0 for m in minors if m]
    plus = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return plus, 0, len(minors) - 1 - plus


def test_leading_minor_oracles_against_bareiss():
    rng = random.Random(99)
    for _ in range(30):
        ws = [rng.randint(-5, 3) for _ in range(rng.randint(1, 8))]
        q = intersection_matrix(chain(ws))
        assert prefix_continuants(ws) == [
            det_bareiss([[-x for x in row[:k]] for row in q[:k]]) for k in range(len(ws) + 1)]
        arms = [[rng.randint(-5, 3) for _ in range(rng.randint(1, 3))] for _ in range(3)]
        center = rng.randint(-5, 3)
        q = intersection_matrix(fork(center, arms))
        assert fork_leading_minors(center, arms) == [
            det_bareiss([[-x for x in row[:k]] for row in q[:k]]) for k in range(len(q) + 1)]
    interior_zero = 0
    for _ in range(1000):  # Jacobi-Frobenius against Berkowitz, zero minors included
        ws = [rng.randint(-3, 2) for _ in range(rng.randint(1, 7))]
        minors = prefix_continuants(ws)
        if minors[-1]:
            interior_zero += 0 in minors
            assert jacobi_inertia(minors) == symmetric_signature(intersection_matrix(chain(ws)))
    assert interior_zero > 100


def test_2000_vertex_chain_and_fork_on_every_path():
    rng = random.Random(7)
    ws = [rng.randint(-5, 3) for _ in range(2000)]
    g = chain(ws)
    minors = prefix_continuants(ws)
    assert discriminant(g) == minors[-1]
    assert signature(g) == jacobi_inertia(minors)
    assert definiteness(g) == INDEFINITE
    assert not is_quotient_type(g).ok

    ws = [rng.randint(-5, -2) for _ in range(2000)]
    g = chain(ws)
    minors = prefix_continuants(ws)
    assert discriminant(g) == minors[-1]
    assert signature(g) == jacobi_inertia(minors) == (0, 0, 2000)
    assert definiteness(g) == NEGATIVE_DEFINITE
    r = is_quotient_type(g)
    assert r.ok and r.kind == "cyclic"

    center = rng.randint(-5, 3)
    arms = [[rng.randint(-5, 3) for _ in range(k)] for k in (667, 666, 666)]
    g = fork(center, arms)
    minors = fork_leading_minors(center, arms)
    assert discriminant(g) == minors[-1] == fork_discriminant(center, arms)
    assert signature(g) == jacobi_inertia(minors)
    assert definiteness(g) == INDEFINITE

    center = rng.randint(-5, -3)
    arms = [[rng.randint(-5, -2) for _ in range(k)] for k in (667, 666, 666)]
    g = fork(center, arms)
    minors = fork_leading_minors(center, arms)
    assert discriminant(g) == minors[-1] == fork_discriminant(center, arms)
    assert signature(g) == jacobi_inertia(minors) == (0, 0, 2000)
    assert definiteness(g) == NEGATIVE_DEFINITE
    r = is_quotient_type(g)
    assert r.ok and r.kind == "fork"
    assert r.twig_discriminants == tuple(sorted(continuant(arm) for arm in arms))


# ------------------------------------------------------ dense-kernel call guard

def watch_intmat(monkeypatch, name, seen):
    """Call seen(*args) before each call of the intmat kernel name, under
    whatever name a module imported it.

    The namespaces patched are the package modules in sys.modules and the
    globals of every package function this test module imported.  The two
    differ once something re-imports the package (the benchmark harness
    does), and the tests call through the functions they imported.
    """
    namespaces = {id(mod.__dict__): mod.__dict__ for modname, mod in list(sys.modules.items())
                  if modname.startswith("dualgraph")}
    for obj in list(globals().values()):
        ns = getattr(obj, "__globals__", None)
        if ns is not None and ns.get("__name__", "").startswith("dualgraph"):
            namespaces[id(ns)] = ns
    for ns in namespaces.values():
        original = ns.get(name)
        if getattr(original, "__module__", None) != "dualgraph.intmat":
            continue

        def watched(*args, _original=original):
            seen(*args)
            return _original(*args)

        monkeypatch.setitem(ns, name, watched)


@pytest.fixture
def dense_calls(monkeypatch):
    """Count calls of the dense determinant and characteristic polynomial."""
    counts = {"det_bareiss": 0, "charpoly": 0}
    for name in counts:
        def count(*args, _name=name):
            counts[_name] += 1
        watch_intmat(monkeypatch, name, count)
    return counts


@pytest.fixture
def smith_inputs(monkeypatch):
    """The matrices smith_normal_form receives, in call order."""
    inputs = []
    watch_intmat(monkeypatch, "smith_normal_form", lambda rows: inputs.append(rows))
    return inputs


def test_pipeline_makes_no_dense_kernel_call(dense_calls):
    for n, m in ((31, 30), (41, 2)):
        assert theorem_pipeline(CuspPair(n, m)).passed
    assert dense_calls == {"det_bareiss": 0, "charpoly": 0}


def test_tree_kernels_make_no_dense_kernel_call(dense_calls):
    g = fork(-3, [[-2, -2], [-2], [0, -1, -3]])
    assert signature(g) == (1, 0, 6)
    inv = smith_invariants(g)
    assert inv.definiteness == INDEFINITE and inv.discriminant == discriminant(g)
    assert dense_calls == {"det_bareiss": 0, "charpoly": 0}


def test_cyclic_graphs_make_no_dense_kernel_call(dense_calls):
    tri = build_graph([(1, -2), (2, -2), (3, -2)], [(1, 2), (2, 3), (1, 3)])
    assert discriminant(tri) == 0
    assert signature(tri) == (0, 1, 2)
    assert smith_invariants(tri).invariant_factors == (1, 3, 0)
    g = lattice_kernels_graphs(1)[-1]
    assert (len(g), classify_shape(g).is_forest) == (40, False)
    d, inertia = discriminant(g), signature(g)
    assert smith_invariants(g).discriminant == d and sum(inertia) == 40
    assert dense_calls == {"det_bareiss": 0, "charpoly": 0}


# ------------------------------------------- congruence pass against dense oracles

def random_multigraph(rng, size):
    """Weights in -3..2, zero with a per-graph share; each pair of vertices
    joined with a per-graph chance, by one edge or two parallel ones."""
    zeros, density = rng.random(), rng.random() * 0.6
    weights = [(v, 0 if rng.random() < zeros else rng.randint(-3, 2)) for v in range(size)]
    edges = [(a, b) for a in range(size) for b in range(a + 1, size)
             for _ in range(rng.choice((1, 1, 2))) if rng.random() < density]
    return build_graph(weights, edges)


def definiteness_of_inertia(inertia):
    plus, zero, minus = inertia
    if plus + zero + minus == 0:
        return EMPTY
    if plus:
        return INDEFINITE
    return NEGATIVE_SEMIDEFINITE if zero else NEGATIVE_DEFINITE


def assert_matches_dense_oracles(g):
    want = symmetric_signature(intersection_matrix(g))
    d = bareiss_discriminant(g)
    assert _congruence_pass(g) == (d, want)
    assert signature(g) == want
    assert discriminant(g) == d
    assert definiteness(g) == definiteness_of_inertia(want)
    inv = smith_invariants(g)
    assert (inv.discriminant, inv.definiteness) == (d, definiteness_of_inertia(want))
    assert inv.invariant_factors.count(0) == want[1]
    assert inv.torsion_order == (abs(d) if d else None)


def test_congruence_pass_matches_dense_oracles_on_random_multigraphs():
    # the pass runs on every graph, forests too; the public functions take
    # it on the graphs with a cycle or a parallel edge.  Each branch of the
    # pass is forced by the input: on an all-zero diagonal with an edge the
    # first step is a row addition, and a zero eigenvalue comes only from a
    # zero diagonal with no neighbours left.
    rng = random.Random(1971)
    row_additions = nullities = cyclic = disconnected = parallel = indefinite = 0
    for _ in range(3000):
        g = random_multigraph(rng, rng.randint(0, 10))
        assert_matches_dense_oracles(g)
        plus, zero, _ = signature(g)
        row_additions += bool(g.edges) and not any(g.weight(v) for v in g.vertices)
        nullities += zero > 0
        shape = classify_shape(g)
        cyclic += not shape.is_forest
        disconnected += len(shape.components) > 1
        parallel += len(set(g.edges)) < len(g.edges)
        indefinite += plus > 0
    assert row_additions > 100 and nullities > 100
    assert min(cyclic, disconnected, parallel, indefinite) > 500


def lattice_kernels_graphs(seed):
    """The 48 graphs of the lattice_kernels benchmark workload, built the same way."""
    rng = random.Random(seed)
    graphs = []
    for n in range(10, 41, 2):
        for shape in ("chain", "tree", "cyclic"):
            weights = [rng.randint(-6, -1) for _ in range(n)]
            if shape == "chain":
                edges = [(i, i + 1) for i in range(n - 1)]
            else:
                edges = [(i, rng.randrange(i)) for i in range(1, n)]
            if shape == "cyclic":
                edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3))]
            graphs.append(build_graph(list(enumerate(weights)), edges))
    return graphs


def test_congruence_pass_on_lattice_kernels_graphs():
    graphs = lattice_kernels_graphs(1)
    assert len(graphs) == 48
    assert sum(not classify_shape(g).is_forest for g in graphs) == 16
    for g in graphs:
        assert_matches_dense_oracles(g)


def cycle(weights):
    """Vertices 0..n-1 in a ring; n = 2 is two vertices joined twice."""
    n = len(weights)
    return build_graph(list(enumerate(weights)), [(i, (i + 1) % n) for i in range(n)])


def cycle_discriminant(weights):
    """det(-Q) of a cycle: trace(prod [[-w_i, -1], [1, 0]]) - 2.

    The transfer matrices multiply out the periodic three-term recurrence
    of -Q, whose off-diagonal entries are all -1.
    """
    a, b, c, d = 1, 0, 0, 1
    for w in weights:
        a, b, c, d = -w * a + c, -w * b + d, -a, -b
    return a + d - 2


def cycle_inertia(weights):
    """Jacobi over the leading minors of -Q: the chain's, then the cycle's."""
    return jacobi_inertia(prefix_continuants(weights)[:-1] + [cycle_discriminant(weights)])


def jacobi_applies(minors):
    return minors[-1] != 0 and all(a or b for a, b in zip(minors, minors[1:]))


def test_cycle_oracles_against_dense_kernels():
    rng = random.Random(250)
    checked = 0
    for _ in range(300):
        ws = [rng.randint(-4, 2) for _ in range(rng.randint(2, 12))]
        q = intersection_matrix(cycle(ws))
        assert cycle_discriminant(ws) == det_bareiss([[-x for x in row] for row in q])
        if jacobi_applies(prefix_continuants(ws)[:-1] + [cycle_discriminant(ws)]):
            checked += 1
            assert cycle_inertia(ws) == symmetric_signature(q)
    assert checked > 200


def test_2000_vertex_cycle_against_closed_forms():
    rng = random.Random(2000)
    ws = [rng.randint(-5, 3) for _ in range(2000)]
    g = cycle(ws)
    assert discriminant(g) == cycle_discriminant(ws)
    assert signature(g) == cycle_inertia(ws)
    assert definiteness(g) == INDEFINITE

    g = cycle([-2] * 2000)
    assert cycle_discriminant([-2] * 2000) == discriminant(g) == 0
    assert signature(g) == (0, 1, 1999)
    assert definiteness(g) == NEGATIVE_SEMIDEFINITE

    g = cycle([-3] * 2000)
    assert discriminant(g) == cycle_discriminant([-3] * 2000)
    assert signature(g) == cycle_inertia([-3] * 2000) == (0, 0, 2000)
    assert definiteness(g) == NEGATIVE_DEFINITE
    assert not is_quotient_type(g).ok


def zero_cycle_inertia(n):
    """Inertia of the n-cycle's adjacency, whose eigenvalues are 2 cos(2 pi k / n)."""
    plus = sum(4 * k < n or 4 * k > 3 * n for k in range(n))
    zero = sum(4 * k in (n, 3 * n) for k in range(n))
    return plus, zero, n - plus - zero


@pytest.mark.parametrize("n", [*range(2, 13), 500, 1000, 2000])
def test_all_zero_cycles_against_closed_forms(n):
    # every diagonal is zero, so the pass starts with a row addition
    g = cycle([0] * n)
    assert signature(g) == zero_cycle_inertia(n)
    assert discriminant(g) == cycle_discriminant([0] * n)
    if n <= 12:
        assert_matches_dense_oracles(g)


def test_zero_stars_with_a_leaf_edge_match_the_dense_oracles():
    for n_leaves in range(2, 13):
        g = star(0, [0] * n_leaves)
        assert_matches_dense_oracles(build_graph([(v, 0) for v in g.vertices],
                                                 list(g.edges) + [(1, 2)]))


# ------------------------------------------------ unit pivots before the Smith form

def test_smith_invariants_match_determinantal_divisors():
    # an oracle independent of both Smith form paths, on every small shape:
    # zero weights, parallel edges, cycles, disconnected and empty graphs
    rng = random.Random(2001)
    residues = 0
    for _ in range(500):
        g = random_multigraph(rng, rng.randint(0, 6))
        want = tuple(determinantal_factors(intersection_matrix(g)))
        assert smith_invariants(g).invariant_factors == want
        residues += len(_unit_pivots(g)[1]) > 0
    assert residues > 100


def test_unit_pivots_leave_no_unit_in_the_residue():
    rng = random.Random(1981)
    for _ in range(1000):
        g = random_multigraph(rng, rng.randint(0, 10))
        ones, residue = _unit_pivots(g)
        assert ones + len(residue) == len(g)
        assert all(len(row) == len(residue) and 1 not in map(abs, row) for row in residue)
        want = smith_normal_form(intersection_matrix(g))
        assert [1] * ones + smith_normal_form(residue) == want


def test_smith_invariants_of_2000_vertex_chain_and_cycle(smith_inputs):
    # a chain's cokernel is cyclic of order |d|: the minor without the first
    # row and the last column is 1
    rng = random.Random(4)
    ws = [rng.randint(-5, 3) for _ in range(2000)]
    assert smith_invariants(chain(ws)).invariant_factors == (1,) * 1999 + (abs(continuant(ws)),)
    assert [(len(rows), len(rows[0])) for rows in smith_inputs] == [(1, 1)]
    # the cokernel of the cycle Laplacian is Z + Z/n
    inv = smith_invariants(cycle([-2] * 2000))
    assert inv.invariant_factors == (1,) * 1998 + (2000, 0)
    assert inv.torsion_order is None


def star(center, leaves):
    return build_graph([(0, center)] + list(enumerate(leaves, 1)),
                       [(0, v) for v in range(1, len(leaves) + 1)])


def test_stars_match_the_dense_smith_form():
    # every leaf hangs off one column, so the residue keeps L - 1 leaves
    rng = random.Random(40)
    for n_leaves in range(1, 41):
        leaves = [rng.randint(-5, 0) for _ in range(n_leaves)]
        g = star(rng.randint(-5, 1), leaves)
        want = tuple(smith_normal_form(intersection_matrix(g)))
        assert smith_invariants(g).invariant_factors == want
    assert len(_unit_pivots(star(-2, [-2] * 40))[1]) == 39


def test_smith_form_sees_only_the_unit_free_residue(smith_inputs):
    # this module's own smith_normal_form is the unwatched original
    graphs = lattice_kernels_graphs(1)
    for g in graphs:
        want = tuple(smith_normal_form(intersection_matrix(g)))
        assert smith_invariants(g).invariant_factors == want
    assert len(smith_inputs) == len(graphs)
    assert all(1 not in map(abs, row) for rows in smith_inputs for row in rows)
    assert max(map(len, smith_inputs)) < 20
