import random

import pytest

from dualgraph.errors import NotAForest
from dualgraph.graph import build_graph, subdivisor
from dualgraph.lattice import (
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

from test_graph import chain


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


def test_splitting_matches_direct_random_trees():
    rng = random.Random(77)
    for _ in range(120):
        n = rng.randint(1, 9)
        vs = [(i, rng.randint(-5, 2)) for i in range(1, n + 1)]
        es = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
        g = build_graph(vs, es)
        assert discriminant_by_splitting(g) == discriminant(g)
        # and on a random subselection (a forest)
        sel = [i for i in range(1, n + 1) if rng.random() < 0.6]
        assert discriminant_by_splitting(g, sel) == discriminant(g, sel)


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
        assert continuant(ws) == discriminant(chain(ws))
        center = rng.randint(-5, 3)
        arms = [[rng.randint(-5, 3) for _ in range(rng.randint(1, 3))] for _ in range(3)]
        assert fork_discriminant(center, arms) == discriminant(fork(center, arms))
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
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 7)
        vs = [(i, rng.randint(-5, 2)) for i in range(1, n + 1)]
        es = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
        g = build_graph(vs, es)
        inv = smith_invariants(g)
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
