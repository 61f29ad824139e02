import random
import re
from fractions import Fraction

import pytest

from dualgraph import (
    NotMinusOne,
    NotSnc,
    NotZeroCurve,
    TooBranched,
    UnknownEdge,
)
from dualgraph.graph import build_graph
from dualgraph.lattice import discriminant, signature
from dualgraph.moves import (
    Move,
    MoveLog,
    apply_move,
    blow_down,
    blow_up,
    elementary_transformation,
    snc_minimalize,
)

from test_graph import chain


def weights_along(g, ids):
    return [g.weight(v) for v in ids]


def test_blow_up_free_on_zero_vertex():
    g = build_graph({1: 0})
    g2, m = blow_up(g, (1,))
    assert weights_along(g2, (1, 2)) == [-1, -1]
    assert g2.has_edge(1, 2)
    assert m.vertex == 2 and m.anchors == (1,)
    assert discriminant(g2) == discriminant(g) == 0


def test_blow_up_free_tip():
    g = build_graph({1: -2})
    g2, _ = blow_up(g, (1,))
    assert weights_along(g2, (1, 2)) == [-3, -1]


def test_blow_up_edge_between_minus_ones():
    g = chain([-1, -1])
    g2, m = blow_up(g, (1, 2))
    assert weights_along(g2, (1, 3, 2)) == [-2, -1, -2]
    assert g2.has_edge(1, 3) and g2.has_edge(3, 2) and not g2.has_edge(1, 2)
    assert m.anchors == (1, 2)


def test_blow_up_edge_preserves_discriminant():
    g = chain([0, 0])
    assert discriminant(g) == -1
    g2, _ = blow_up(g, (1, 2))
    assert weights_along(g2, (1, 3, 2)) == [-1, -1, -1]
    assert discriminant(g2) == -1


def test_blow_up_edge_requires_edge():
    g = build_graph({1: 0, 2: 0})
    with pytest.raises(UnknownEdge):
        blow_up(g, (1, 2))


def test_blow_down_interior():
    g = chain([-2, -1, -2])
    g2, m = blow_down(g, 2)
    assert list(g2.vertices) == [1, 3]
    assert weights_along(g2, (1, 3)) == [-1, -1]
    assert g2.has_edge(1, 3)
    assert m.anchors == (1, 3) and m.position == 1


def test_blow_down_tip_and_isolated():
    g = chain([-1, -2])
    g2, _ = blow_down(g, 1)
    assert list(g2.vertices) == [2] and g2.weight(2) == -1
    g3, _ = blow_down(g2, 2)
    assert len(g3) == 0
    assert discriminant(g3) == 1


def test_blow_down_preconditions():
    with pytest.raises(NotMinusOne):
        blow_down(chain([-2, -1]), 1)
    star = build_graph({1: -1, 2: -2, 3: -2, 4: -2},
                       [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(TooBranched):
        blow_down(star, 1)
    triangle = build_graph({1: -1, 2: -2, 3: -2},
                           [(1, 2), (1, 3), (2, 3)])
    with pytest.raises(NotSnc):
        blow_down(triangle, 1)
    doubled = build_graph({1: -1, 2: -2}, [(1, 2), (1, 2)])
    with pytest.raises(NotSnc):
        blow_down(doubled, 1)


def test_spawn_is_isolated():
    g = build_graph({1: -2})
    g2, m = blow_up(g)
    assert g2.weight(2) == -1 and g2.degree(2) == 0
    assert m.kind == "spawn"


def test_move_ids_never_reused():
    g = chain([-2, -1, -2])
    g2, _ = blow_down(g, 2)
    g3, _ = blow_up(g2, (1,))
    assert list(g3.vertices) == [1, 3, 4]


def test_inverted_is_involution():
    m = Move("blow_up_edge", 7, 3, (1, 2))
    assert m.inverted().inverted() == m
    d = Move("blow_down", 5, 0, (9,))
    assert d.inverted().kind == "blow_up_free"
    assert d.inverted().inverted() == d


def test_a_log_apply_rejects_cannot_be_inverted():
    g = chain([-2, -1])
    log = MoveLog((Move("flip", 2, 1, (1,)),))
    message = re.escape("'flip' move cannot have anchors (1,)")
    for run in (lambda: log.replay(g), log.inverted, log.moves[0].inverted):
        with pytest.raises(ValueError, match=message):
            run()


def test_a_log_holds_its_moves_in_a_tuple():
    # a log given a list equals and hashes as the same moves in a tuple, and
    # changing the list afterwards leaves it as it was
    m = Move("spawn", 3, 0)
    moves = [m]
    log = MoveLog(moves)
    assert log == MoveLog((m,)) and hash(log) == hash(MoveLog((m,)))
    assert isinstance(log.moves, tuple) and {log: 1}[MoveLog((m,))] == 1
    moves.append(m)
    assert log.moves == (m,) and len(log) == 1
    assert MoveLog(iter(moves)).moves == (m, m)


def test_a_log_adds_only_a_log():
    m = Move("spawn", 3, 0)
    log = MoveLog((m,))
    assert log + MoveLog((m,)) == MoveLog((m, m))
    for other in ((m,), [m], m, None):
        with pytest.raises(TypeError):
            log + other
    with pytest.raises(TypeError):
        (m,) + log


def test_blow_up_anchors_decide_the_kind():
    g = chain([0, -2])
    for anchors, kind in (((), "spawn"), ((2,), "blow_up_free"), ((1, 2), "blow_up_edge")):
        g2, m2 = blow_up(g, anchors)
        assert m2 == Move(kind, 3, 2, anchors)
        assert apply_move(g2, m2.inverted()) == g


def test_kind_must_match_anchor_count():
    g = chain([-1, -2])
    kinds = ("spawn", "blow_up_free", "blow_up_edge")
    for count, kind in enumerate(kinds):
        for anchors in ((), (1,), (1, 2), (1, 2, 1)):
            if len(anchors) != count:
                with pytest.raises(ValueError):
                    apply_move(g, Move(kind, 5, 1, anchors))
    with pytest.raises(ValueError):
        blow_up(g, (1, 2, 1))
    star = build_graph({1: -1, 2: -2, 3: -2, 4: -2}, [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(ValueError):
        apply_move(star, Move("blow_down", 1, 0, (2, 3, 4)))
    with pytest.raises(ValueError):
        apply_move(g, Move("flip", 5, 1, (1,)))


def test_blow_down_onto_a_double_edge_is_rejected():
    doubled = build_graph({1: -1, 2: -2}, [(1, 2), (1, 2)])
    with pytest.raises(ValueError):
        apply_move(doubled, Move("blow_down", 1, 0, (2, 2)))


def test_round_trip_single_blow_down():
    g = chain([-2, -1, -2])
    g2, m = blow_down(g, 2)
    back = apply_move(g2, m.inverted())
    assert back == g
    assert list(back.vertices) == [1, 2, 3]


def random_tree(rng, size, lo=-4, hi=2):
    weights = {i: rng.randint(lo, hi) for i in range(1, size + 1)}
    edges = [(rng.randint(1, i - 1), i) for i in range(2, size + 1)]
    return build_graph(weights, edges)


def random_move(rng, g):
    kind = rng.choice(["free", "edge", "down"])
    if kind == "free" and len(g):
        v = rng.choice(list(g.vertices))
        return blow_up(g, (v,))
    if kind == "edge" and g.edges:
        a, b = rng.choice(list(g.edges))
        return blow_up(g, (a, b))
    candidates = [v for v in g.vertices if g.weight(v) == -1]
    rng.shuffle(candidates)
    for v in candidates:
        try:
            return blow_down(g, v)
        except (TooBranched, NotSnc):
            continue
    return None


def test_round_trip_random_sequences():
    rng = random.Random(20240816)
    for _ in range(60):
        g0 = random_tree(rng, rng.randint(1, 7))
        g, moves = g0, []
        for _ in range(rng.randint(1, 12)):
            step = random_move(rng, g)
            if step is None:
                continue
            g, m = step
            moves.append(m)
        log = MoveLog(tuple(moves))
        assert log.replay(g0) == g
        assert log.inverted().replay(g) == g0


def test_moves_preserve_discriminant_and_signature():
    rng = random.Random(4451)
    for _ in range(40):
        g = random_tree(rng, rng.randint(1, 6))
        d0, s0 = discriminant(g), signature(g)
        for _ in range(6):
            step = random_move(rng, g)
            if step is None:
                break
            g, _ = step
        assert discriminant(g) == d0
        sig = signature(g)
        assert (sig[0], sig[1]) == (s0[0], s0[1])


def test_minimalize_chain_to_zero():
    g = chain([-2, -1, -2])
    g2, log = snc_minimalize(g)
    assert len(g2) == 1 and g2.weight(list(g2.vertices)[0]) == 0
    assert len(log) == 2
    assert log.inverted().replay(g2) == g


def test_minimalize_respects_protection():
    g = chain([-2, -1, -2])
    g2, log = snc_minimalize(g, protected=(1, 3))
    assert list(g2.vertices) == [1, 3]
    assert weights_along(g2, (1, 3)) == [-1, -1]
    assert len(log) == 1
    g3, log3 = snc_minimalize(g2, protected=(1, 3))
    assert g3 == g2 and len(log3) == 0


def test_minimalize_skips_blocked_vertex():
    # the (-1) sits on a double edge: no legal contraction exists
    g = build_graph({1: -1, 2: -2}, [(1, 2), (1, 2)])
    g2, log = snc_minimalize(g)
    assert g2 == g and len(log) == 0


def test_minimalize_is_idempotent():
    rng = random.Random(90125)
    for _ in range(30):
        g = random_tree(rng, rng.randint(1, 7))
        g1, _ = snc_minimalize(g)
        g2, log = snc_minimalize(g1)
        assert g2 == g1 and len(log) == 0


def test_minimalize_smallest_id_first():
    g = build_graph({1: -1, 2: -2, 3: -1}, [(1, 2), (2, 3)])
    _, log = snc_minimalize(g)
    assert log.moves[0].vertex == 1


def test_elementary_interior_shifts_weight():
    g = chain([-2, 0, -2])
    g2, log = elementary_transformation(g, 2, side=1)
    order = g2.vertices
    # new chain reads (-3, 0, -1) from the old left tip
    assert weights_along(g2, (1,)) == [-3]
    assert g2.weight(3) == -1
    zero = [v for v in g2.vertices if v not in (1, 3)][0]
    assert g2.weight(zero) == 0
    assert g2.has_edge(1, zero) and g2.has_edge(zero, 3)
    assert len(log) == 2
    assert discriminant(g2) == discriminant(g)
    assert len(order) == 3


def test_elementary_free_at_tip():
    g = chain([0, -3])
    g2, _ = elementary_transformation(g, 1, side="free")
    assert g2.weight(2) == -2
    new_tip = [v for v in g2.vertices if v != 2][0]
    assert g2.weight(new_tip) == 0 and g2.degree(new_tip) == 1


def test_elementary_neighbor_side_at_tip():
    g = chain([0, -3])
    g2, _ = elementary_transformation(g, 1, side=2)
    assert g2.weight(2) == -4
    new_tip = [v for v in g2.vertices if v != 2][0]
    assert g2.weight(new_tip) == 0


def test_elementary_preconditions():
    with pytest.raises(NotZeroCurve):
        elementary_transformation(chain([-1, -2]), 1, side=2)
    branching = build_graph({1: 0, 2: -2, 3: -2, 4: -2},
                            [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(TooBranched):
        elementary_transformation(branching, 1, side=2)
    with pytest.raises(TooBranched):
        elementary_transformation(chain([-2, 0, -2]), 2, side="free")
    with pytest.raises(UnknownEdge):
        elementary_transformation(chain([0, -2, -2]), 1, side=3)


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.0, Fraction(1), "1"])
def test_move_ids_must_be_ints(bad):
    """Each public move refuses an id that is not an int before it reads the
    graph: True, 1.0 and Fraction(1) would find vertex 1 and log themselves."""
    g = chain([-1, -1])
    zero = chain([0, -2])
    cases = [
        (lambda: blow_up(g, (bad,)), "anchor"),
        (lambda: blow_up(g, (1, bad)), "anchor"),
        (lambda: blow_up(g, (bad, 2)), "anchor"),
        (lambda: blow_down(g, bad), "vertex"),
        (lambda: snc_minimalize(g, [bad]), "protected vertex"),
        (lambda: snc_minimalize(g, [1, bad]), "protected vertex"),
        (lambda: elementary_transformation(zero, bad, "free"), "zero_vertex"),
        (lambda: elementary_transformation(zero, 1, bad), "side"),
    ]
    for call, what in cases:
        with pytest.raises(TypeError, match=re.escape(f"{what} must be an int, got {bad!r}")):
            call()


def test_elementary_round_trip():
    g = chain([-2, 0, -2])
    g2, log = elementary_transformation(g, 2, side=3)
    assert log.inverted().replay(g2) == g
