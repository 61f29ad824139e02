import itertools
import random
from heapq import heappop, heappush

import pytest

from dualgraph.errors import (
    ChainRewriteInvariantViolation,
    DualGraphError,
    NotAChain,
    NotStandardizable,
)
from dualgraph.graph import _walk, build_graph, classify_shape
from dualgraph.lattice import discriminant, signature
from dualgraph.chains import (
    ChainType,
    StandardizeResult,
    chain_order,
    chain_type,
    standardize_chain,
)
from dualgraph.moves import MoveLog, _Draft

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


@pytest.mark.parametrize("vertices,edges", [
    ([], []),                                         # empty
    ([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)]),  # cycle
    ([1, 2, 3], [(1, 2), (2, 3), (2, 3)]),            # parallel edge
    ([1, 2, 3, 4], [(1, 2), (1, 3), (1, 4)]),          # fork
    ([1, 2, 3, 4], [(1, 2), (2, 3), (1, 3)]),          # two components, V - 1 edges
    ([1, 2, 3, 4], [(1, 2), (3, 4)]),                  # two components, two paths
])
def test_chain_order_raises_one_error_off_a_chain(vertices, edges):
    g = build_graph([(v, -2) for v in vertices], edges)
    with pytest.raises(NotAChain, match="^selection is not a connected cycle-free chain$"):
        chain_order(g)


def test_chain_order_agrees_with_the_shape_report():
    # the one walk of chain_order against classify_shape's chain test and
    # the walk from its first tip, on random small multigraphs
    rng = random.Random(38)
    for _ in range(3000):
        k = rng.randint(0, 6)
        edges = [tuple(rng.sample(range(k), 2)) for _ in range(rng.randint(0, k))] if k > 1 else []
        g = build_graph([(v, -2) for v in range(k)], edges)
        shape = classify_shape(g)
        if shape.is_chain:
            assert chain_order(g) == tuple(_walk(g._index(), shape.tips[:1])[0])
        else:
            with pytest.raises(NotAChain):
                chain_order(g)


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
    from dualgraph.moves import blow_up

    rng = random.Random(88)
    for _ in range(60):
        g = build_graph([(0, 0)], [])
        for _ in range(rng.randint(1, 10)):
            tips = [v for v in g.vertices if g.degree(v) <= 1]
            if g.edges and rng.random() < 0.5:
                a, b = rng.choice(g.edges)
                g, _mv = blow_up(g, (a, b))
            else:
                g, _mv = blow_up(g, (rng.choice(tips),))
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
    monkeypatch.setattr(ChainType, "is_standard", False)
    rounds, elementary_run = [], _Draft.elementary_run

    def counted(*args):
        rounds.append(args)
        assert len(rounds) <= 1000, "the move budget never stopped the rewriting"
        elementary_run(*args)

    monkeypatch.setattr(_Draft, "elementary_run", counted)
    with pytest.raises(ChainRewriteInvariantViolation, match="move budget"):
        standardize_chain(chain([0, 0]))
    assert len(rounds) == 451
    assert issubclass(ChainRewriteInvariantViolation, DualGraphError)


# ------------------------------------------------------ reference rewriting


def _reference_contract_all(d, keep):
    """Contraction that tests the snc rule as a bool before each blow-down."""
    heap = sorted(d.order)
    while heap and len(d.order) > keep:
        v = heappop(heap)
        if d.weights.get(v) != -1:
            continue
        nbs = d.adj[v]
        if len(nbs) >= 3 or (len(nbs) == 2 and (nbs[0] == nbs[1] or d.has_edge(*nbs))):
            continue
        for a in d.blow_down(v).anchors:
            heappush(heap, a)


def _reference_run_ets(d, zero, side, count):
    for _ in range(count):
        zero = d.elementary_transformation(zero, side)[0].vertex


def reference_standardize_chain(g):
    """standardize_chain's rewriting with one branch per chain pattern.

    The oracle for the folded case analysis: the (0, neg), (neg, 0) and
    (0, 0) pairs, the tip ladder and the interior ladder each have their
    own branch, and the single-vertex ramp looks the last blow-up up among
    the vertex's neighbours on every step.
    """
    chain_order(g)
    plus, zero_eigs, minus = signature(g)
    if plus + zero_eigs >= 2:
        raise NotStandardizable(
            f"intersection form has inertia ({plus},{zero_eigs},{minus}); "
            "no chain normal form is reachable"
        )
    total_weight = sum(abs(g.weight(v)) for v in g.vertices)
    budget = 50 * (len(g) + total_weight + 4) ** 2
    d = _Draft(g)
    while True:
        _reference_contract_all(d, keep=1)
        if len(d.log) > budget:
            raise ChainRewriteInvariantViolation(
                "chain rewriting exceeded its move budget; "
                "this indicates a bug in the case analysis")
        order = _walk(d.adj, [next(v for v in d.order if len(d.adj[v]) <= 1)])[0]
        t = [-d.weights[v] for v in order]
        if ChainType(tuple(t)).is_standard or min(t) >= 2:
            break
        k = len(t)
        if k == 1:
            v = order[0]
            d.blow_up((v,))
            while -d.weight(v) < 0:
                nbs = sorted(d.adj[v], key=d.order.index)
                last = [u for u in nbs if d.weight(u) == -1][0]
                d.blow_up((last, v))
            d.elementary_transformation(v, "free")
            continue
        bad = [i for i, x in enumerate(t) if x <= 0]
        if len(bad) > 2 or (len(bad) == 2 and bad[1] != bad[0] + 1):
            raise ChainRewriteInvariantViolation(f"unreachable chain pattern {t}")
        if min(bad) > (k - 1) - max(bad):
            order.reverse()
            t.reverse()
            bad = sorted(k - 1 - i for i in bad)
        p = bad[0]
        if len(bad) == 2:
            if t[p] == 0 and t[p + 1] <= -1:
                _reference_run_ets(d, order[p], order[p + 1], -t[p + 1])
            elif t[p] <= -1 and t[p + 1] == 0:
                _reference_run_ets(d, order[p + 1], order[p], -t[p])
            elif t[p] == 0 and t[p + 1] == 0:
                _reference_run_ets(d, order[p], order[p + 1], 2)
            else:
                raise ChainRewriteInvariantViolation(f"unreachable chain pattern {t}")
        elif p == 0:
            if t[0] == 0:
                _reference_run_ets(d, order[0], "free", t[1])
            else:
                left, right = order[0], order[1]
                for _ in range(-t[0]):
                    right = d.blow_up((left, right)).vertex
                d.elementary_transformation(left, "free")
        elif t[p] == 0:
            _reference_run_ets(d, order[p], order[p + 1], t[p - 1] - 1)
        else:
            v, right = order[p], order[p + 1]
            for _ in range(-t[p]):
                right = d.blow_up((v, right)).vertex
            d.elementary_transformation(v, right)
    final_type = ChainType(tuple(t))
    return StandardizeResult(final_type, MoveLog(tuple(d.log)), d.freeze(),
                             final_type.is_standard)


def _outcome(standardize, g):
    try:
        r = standardize(g)
    except DualGraphError as e:
        return type(e), str(e)
    return type(r), r.chain_type, r.log, r.graph, r.graph.next_id, r.is_standard


def _agree_with_the_reference(weight_lists):
    kinds = set()
    for ws in weight_lists:
        g = chain(list(ws))
        got = _outcome(standardize_chain, g)
        assert got == _outcome(reference_standardize_chain, g), ws
        kinds.add(got[0])
    return kinds


def test_standardize_matches_the_reference_on_every_short_chain():
    weight_lists = [ws for k in range(1, 5)
                    for ws in itertools.product(range(-4, 5), repeat=k)]
    assert len(weight_lists) == 7380
    assert _agree_with_the_reference(weight_lists) == {StandardizeResult, NotStandardizable}


def test_standardize_matches_the_reference_on_random_chains():
    rng = random.Random(20261019)
    weight_lists = []
    for _ in range(3000):
        ws = [rng.randint(-5, 3) for _ in range(rng.randint(1, 9))]
        ws[rng.randrange(len(ws))] = rng.randint(-60, 60)
        weight_lists.append(ws)
    assert _agree_with_the_reference(weight_lists) == {StandardizeResult, NotStandardizable}


def test_standardize_matches_the_reference_on_weight_sized_runs():
    # [W, -2] takes one ladder of W edge blow-ups, [W] the single-vertex ramp:
    # both are one draft patch in standardize_chain and W single moves in the
    # reference
    ws = list(range(-3, 40)) + [64, 100, 255, 512, 1000]
    weight_lists = [[w, -2] for w in ws] + [[w] for w in ws]
    assert _agree_with_the_reference(weight_lists) == {StandardizeResult}
