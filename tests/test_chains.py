import random

import pytest

from dualgraph.errors import (
    ChainRewriteInvariantViolation,
    DualGraphError,
    NotAChain,
    NotStandardizable,
)
from dualgraph.graph import build_graph
from dualgraph.lattice import discriminant, signature
from dualgraph import chains
from dualgraph.chains import (
    ChainType,
    chain_order,
    chain_type,
    standardize_chain,
)

from test_graph import chain


def standard_shape(entries):
    if entries in ((0,), (1,)):
        return True
    return (
        len(entries) >= 2
        and entries[0] == 0
        and entries[1] == 0
        and all(x >= 2 for x in entries[2:])
    )


# ---------------------------------------------------------------- ordering


def test_chain_order_single():
    g = build_graph([(7, -2)], [])
    assert chain_order(g) == (7,)


def test_chain_order_path():
    g = chain([-2, -1, -3])
    assert chain_order(g) == (1, 2, 3)


def test_chain_order_starts_at_earlier_tip():
    # canonical order of the ids decides which tip leads
    g = build_graph([(5, 0), (2, -1), (9, -2)], [(2, 5), (5, 9)])
    assert chain_order(g) == (2, 5, 9)


def test_chain_order_selection_listing_irrelevant():
    g = chain([-2, -3, 0, 2])
    assert chain_order(g, [4, 2, 3, 1]) == (1, 2, 3, 4)


def test_chain_order_long_shuffled_path():
    rng = random.Random(3)
    n = 3000
    declared = list(range(n))
    rng.shuffle(declared)
    path = list(range(n))
    rng.shuffle(path)
    g = build_graph([(v, -2) for v in declared], list(zip(path, path[1:])))
    position = {v: i for i, v in enumerate(declared)}
    walk = path if position[path[0]] < position[path[-1]] else path[::-1]
    assert chain_order(g) == tuple(walk)


def test_chain_order_subchain_of_tree():
    g = build_graph(
        [(0, -2), (1, -2), (2, -2), (3, -1), (4, -3), (5, 0), (6, 2)],
        [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)],
    )
    with pytest.raises(NotAChain):
        chain_order(g)
    assert chain_order(g, [6, 4, 5]) == (4, 5, 6)


def test_chain_order_rejects_star():
    g = build_graph([(1, -2), (2, -2), (3, -2), (4, -2)], [(1, 4), (2, 4), (3, 4)])
    with pytest.raises(NotAChain):
        chain_order(g)


def test_chain_order_rejects_cycle():
    g = build_graph([(1, -2), (2, -2), (3, -2)], [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(NotAChain):
        chain_order(g)


def test_chain_order_rejects_double_edge():
    g = build_graph([(1, -2), (2, -2)], [(1, 2), (1, 2)])
    with pytest.raises(NotAChain):
        chain_order(g)


def test_chain_order_rejects_disconnected():
    g = build_graph([(1, -2), (2, -2)], [])
    with pytest.raises(NotAChain):
        chain_order(g)
    with pytest.raises(NotAChain):
        chain_order(g, [])


def test_chain_type_negates_weights():
    g = chain([-2, 0, 3])
    assert chain_type(g).entries == (-3, 0, 2)


# ---------------------------------------------------------------- ChainType


def test_chain_type_canonical_up_to_reversal():
    assert ChainType((4, 0, 0)).entries == (0, 0, 4)
    assert ChainType((3, 1)).entries == (1, 3)
    assert ChainType((2, 0, 5)) == ChainType((5, 0, 2))
    assert len(ChainType((2, 0, 5))) == 3


def test_chain_type_standard_forms():
    assert ChainType((0,)).is_standard
    assert ChainType((1,)).is_standard
    assert ChainType((0, 0)).is_standard
    assert ChainType((4, 3, 0, 0)).is_standard
    assert not ChainType((2,)).is_standard
    assert not ChainType((0, 0, 1)).is_standard
    assert not ChainType((2, 2)).is_standard
    assert not ChainType((0, 2, 0)).is_standard


# ------------------------------------------------------------ normal forms


HAND_TRACES = [
    # weights in, canonical type entries out
    ((-2, -1, -2), (0,)),
    ((1, -3), (0, 0, 4)),
    ((2, -3), (0, 0, 2, 4)),
    ((2, 0, -3), (0, 0)),
    ((-3, 0, -2), (0, 0, 5)),
    ((-2, 1, -2), (0, 0, 3, 3)),
    ((-3, 0, 1, -4), (0, 0, 2, 4)),
    ((1, 0), (0, 0)),
    ((1,), (0, 0)),
    ((2,), (0, 0, 2)),
    ((3,), (0, 0, 2, 2)),
    ((0,), (0,)),
    ((-1,), (1,)),
]


@pytest.mark.parametrize("weights,expected", HAND_TRACES)
def test_standardize_hand_traces(weights, expected):
    g = chain(list(weights))
    d0, s0 = discriminant(g), signature(g)
    r = standardize_chain(g)
    assert r.chain_type == ChainType(expected)
    assert r.is_standard
    assert discriminant(r.graph) == d0
    assert signature(r.graph)[:2] == s0[:2]


def test_standardize_already_standard_is_a_fixpoint():
    g = chain([0, 0, -2, -3])
    r = standardize_chain(g)
    assert r.graph == g
    assert len(r.log) == 0
    assert r.chain_type == ChainType((0, 0, 2, 3))


def test_standardize_negative_definite_returns_minimal_nonstandard():
    g = chain([-2, -2])
    r = standardize_chain(g)
    assert r.graph == g
    assert not r.is_standard
    assert r.chain_type == ChainType((2, 2))


def test_standardize_negative_definite_can_reach_minus_one():
    # contracts to the lone (-1)-vertex, the only standard definite form
    g = chain([-2, -1, -3])
    r = standardize_chain(g)
    assert r.chain_type == ChainType((1,))
    assert r.is_standard
    assert len(r.graph) == 1


def test_standardize_single_minus_two_weight_stays():
    g = chain([-2])
    r = standardize_chain(g)
    assert r.chain_type == ChainType((2,))
    assert not r.is_standard


@pytest.mark.parametrize("weights", [(0, 0, 0), (1, 1), (3, 0, -2), (2, 2)])
def test_standardize_rejects_two_nonnegative_eigenvalues(weights):
    g = chain(list(weights))
    plus, zero, _ = signature(g)
    assert plus + zero >= 2
    with pytest.raises(NotStandardizable):
        standardize_chain(g)


def test_standardize_subchain_selection():
    g = build_graph(
        [(0, -2), (1, -2), (2, -2), (3, -1), (4, -3), (5, 0), (6, 2)],
        [(0, 3), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6)],
    )
    r = standardize_chain(g, [4, 5, 6])
    assert r.chain_type == ChainType((0, 0))
    # the log replays against the selection cut out as its own graph
    standalone = build_graph([(4, -3), (5, 0), (6, 2)], [(4, 5), (5, 6)])
    assert r.log.replay(standalone) == r.graph
    assert r.log.inverted().replay(r.graph) == standalone


def test_standardize_log_replay_and_inverse():
    g = chain([2, -3])
    r = standardize_chain(g)
    assert r.log.replay(g) == r.graph
    assert r.log.inverted().replay(r.graph) == g


def test_standardize_random_blowups_of_zero_vertex_return_to_it():
    # chain-shaped blow-up histories over the 0-vertex stay in the kernel
    # class, so standardization must undo them exactly
    from dualgraph.moves import blow_up_edge, blow_up_free

    rng = random.Random(88)
    for _ in range(60):
        g = build_graph([(0, 0)], [])
        for _ in range(rng.randint(1, 10)):
            tips = [v for v in g.vertices if g.degree(v) <= 1]
            if g.edges and rng.random() < 0.5:
                a, b = rng.choice(g.edges)
                g, _mv = blow_up_edge(g, a, b)
            else:
                g, _mv = blow_up_free(g, rng.choice(tips))
        assert signature(g)[:2] == (0, 1)
        r = standardize_chain(g)
        assert r.chain_type == ChainType((0,))
        assert discriminant(r.graph) == 0
        assert r.log.replay(g) == r.graph


def test_standardize_random_chains_by_inertia():
    rng = random.Random(771020)
    seen = {"reject": 0, "kernel": 0, "hyperbolic": 0, "definite": 0}
    for _ in range(300):
        k = rng.randint(1, 7)
        weights = [rng.randint(-5, 3) for _ in range(k)]
        g = chain(weights)
        plus, zero, _ = signature(g)
        if plus + zero >= 2:
            with pytest.raises(NotStandardizable):
                standardize_chain(g)
            seen["reject"] += 1
            continue
        d0 = discriminant(g)
        r = standardize_chain(g)
        assert discriminant(r.graph) == d0
        assert signature(r.graph)[:2] == (plus, zero)
        assert r.log.replay(g) == r.graph
        e = r.chain_type.entries
        if (plus, zero) == (0, 1):
            assert e == (0,)
            seen["kernel"] += 1
        elif (plus, zero) == (1, 0):
            assert standard_shape(e) and r.is_standard
            seen["hyperbolic"] += 1
        else:
            # definite: standard only when it collapses to the lone (-1)
            assert r.is_standard == (e == (1,))
            if e != (1,):
                assert all(x >= 2 for x in e)
            seen["definite"] += 1
    # the generator must exercise the common branches to mean anything;
    # the kernel class is rare here and has its own dedicated test above
    assert seen["reject"] > 10 and seen["hyperbolic"] > 10 and seen["definite"] > 10, seen
    assert seen["kernel"] >= 1, seen


def test_exhausted_move_budget_is_a_typed_error(monkeypatch):
    # a case analysis that never reaches a terminal chain runs out of moves:
    # [0, 0] has a budget of 1800 moves at four a round, so the check
    # trips at the end of round 451
    monkeypatch.setattr(chains, "_is_terminal", lambda t: False)
    rounds, run_ets = [], chains._run_ets

    def counted(*args):
        rounds.append(args)
        assert len(rounds) <= 1000, "the move budget never stopped the rewriting"
        run_ets(*args)

    monkeypatch.setattr(chains, "_run_ets", counted)
    with pytest.raises(ChainRewriteInvariantViolation, match="move budget"):
        standardize_chain(chain([0, 0]))
    assert len(rounds) == 451
    assert issubclass(ChainRewriteInvariantViolation, DualGraphError)
