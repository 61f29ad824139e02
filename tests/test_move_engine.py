"""The in-place move engine against a rebuild-per-move reference.

rebuild_apply_move is the engine the package used before moves patched a
mutable draft: every move rebuilds the whole immutable graph from its
vertex order, weights and edge list.  rebuild_with_vertex is the same for
the one assembly step, gluing a fresh vertex on.  Both are kept here only
as oracles.
"""

import heapq
import random

import pytest

from dualgraph import graph as graph_module
from dualgraph import moves as moves_module
from dualgraph.errors import (
    MoveLogTooLong,
    NotMinusOne,
    NotSnc,
    NotZeroCurve,
    TooBranched,
    UnknownEdge,
    UnknownVertex,
)
from dualgraph.graph import WeightedGraph, _norm_edge, build_graph, induced_graph
from dualgraph.moves import (
    BLOW_DOWN,
    BLOW_UP_KINDS,
    Move,
    MoveLog,
    _Draft,
    apply_move,
    blow_down,
    snc_minimalize,
)
from dualgraph.chains import standardize_chain
from dualgraph.resolution import CuspPair, build_completion, theorem_pipeline

from test_graph import chain


def rebuild_apply_move(g: WeightedGraph, m: Move) -> WeightedGraph:
    if len(m.anchors) >= len(BLOW_UP_KINDS):
        raise ValueError(f"a blow-up centre lies on at most two curves, got {m.anchors}")
    if m.kind not in (BLOW_UP_KINDS[len(m.anchors)], BLOW_DOWN):
        raise ValueError(f"{m.kind!r} move cannot have anchors {m.anchors}")
    corner = _norm_edge(*m.anchors) if len(m.anchors) == 2 else None
    if m.kind == BLOW_DOWN:
        g.require_vertex(m.vertex)
        if g.weight(m.vertex) != -1:
            raise NotMinusOne(f"vertex {m.vertex} has weight {g.weight(m.vertex)}")
        if tuple(sorted(g.neighbors(m.vertex))) != tuple(sorted(m.anchors)):
            raise ValueError(f"move anchors {m.anchors} do not match the graph")
        if corner is not None and corner[0] == corner[1]:
            raise ValueError(f"vertex {m.vertex} meets {corner[0]} twice")
        if not 0 <= m.position < len(g) or g.vertices[m.position] != m.vertex:
            raise ValueError(f"vertex {m.vertex} is not at position {m.position}")
        order = [v for v in g.vertices if v != m.vertex]
        edges = [e for e in g.edges if m.vertex not in e]
        if corner is not None:
            edges.append(corner)
        step, next_id = 1, g.next_id
    else:
        if corner is not None and not g.has_edge(*corner):
            raise UnknownEdge("no edge {}-{}".format(*m.anchors))
        for a in m.anchors:
            g.require_vertex(a)
        if g.has_vertex(m.vertex):
            raise ValueError(f"move would recreate existing vertex {m.vertex}")
        if not 0 <= m.position <= len(g):
            raise ValueError(f"insertion position {m.position} out of range")
        order = list(g.vertices)
        order.insert(m.position, m.vertex)
        edges = list(g.edges) + [_norm_edge(m.vertex, a) for a in m.anchors]
        if corner is not None:
            edges.remove(corner)
        step, next_id = -1, max(g.next_id, m.vertex + 1)
    weights = {v: g.weight(v) if v != m.vertex else -1 for v in order}
    for a in m.anchors:
        weights[a] += step
    return WeightedGraph(order, weights, edges, next_id)


def rebuild_with_vertex(g: WeightedGraph, weight: int, neighbors=()):
    """Append one fresh vertex, meeting each listed neighbour once; (graph, id)."""
    vid = g.next_id
    w = dict(g._weight)
    w[vid] = weight
    edge_list = list(g.edges)
    for u in neighbors:
        g.require_vertex(u)
        edge_list.append(_norm_edge(vid, u))
    return WeightedGraph(g.vertices + (vid,), w, edge_list, vid + 1), vid


def rescan_snc_minimalize(g, protected=(), keep=0, eligible=None):
    """Minimalization by a full rescan after every contraction.

    eligible(g, v), when given, replaces the snc rule; contraction stops
    once only keep vertices remain.
    """
    def contractible(g, v):
        if v in protected or g.weight(v) != -1:
            return False
        nbs = g.neighbors(v)
        return len(nbs) <= 1 or (len(nbs) == 2 and nbs[0] != nbs[1]
                                 and not g.has_edge(*nbs))

    eligible = eligible or contractible
    log = []
    while len(g) > keep:
        for v in sorted(g.vertices):
            if eligible(g, v):
                m = Move(BLOW_DOWN, v, g.vertices.index(v), g.neighbors(v))
                g = rebuild_apply_move(g, m)
                log.append(m)
                break
        else:
            break
    return g, log


def state(g):
    return (g.vertices, tuple(g.weight(v) for v in g.vertices), g.edges, g.next_id)


def random_multigraph(rng, n):
    ids = rng.sample(range(1, 3 * n + 3), n)
    weights = [(v, rng.choice([-1, -1, -1, -2, -3, 0, 1])) for v in ids]
    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n) if rng.random() < 0.85]
    for _ in range(rng.randint(0, 2)):
        if n >= 2:
            edges.append(tuple(rng.sample(ids, 2)))
    return build_graph(weights, edges)


def random_move(rng, g, log):
    """A move for g: valid ones of every kind, inverses, and ones to reject."""
    verts = list(g.vertices)
    fresh = g.next_id + rng.choice([0, 0, 0, 3])
    pos = rng.randint(0, len(g))
    roll = rng.random()
    if roll < 0.25 and verts:
        anchors = rng.choice([(), (rng.choice(verts),)] + [e for e in g.edges])
        return Move(BLOW_UP_KINDS[len(anchors)], fresh, pos, tuple(anchors))
    if roll < 0.45 and verts:
        v = rng.choice(verts)
        anchors = list(g.neighbors(v))
        rng.shuffle(anchors)
        pos = g.vertices.index(v) if rng.random() < 0.5 else rng.randint(0, len(g))
        return Move(BLOW_DOWN, v, pos, tuple(anchors))
    if roll < 0.6 and log:
        return log[-1].inverted()
    if roll < 0.7 and log:
        return rng.choice(log).inverted()
    return rng.choice(rejected_moves(g, rng.choice(verts) if verts else 0, fresh, pos))


def rejected_moves(g, v, fresh, pos):
    """Moves that must (mostly) be rejected; the first five have malformed kinds."""
    stranger = max(g.vertices, default=0) + 100
    return [
        Move("spawn", fresh, pos, (v,)),
        Move("blow_up_free", fresh, pos, ()),
        Move("blow_up_edge", fresh, pos, (v,)),
        Move("blow_up_edge", fresh, pos, (v, v, v)),
        Move(BLOW_DOWN, v, 0, (v, v, v)),
        Move(BLOW_DOWN, stranger, 0, ()),
        Move(BLOW_DOWN, v, 0, (stranger,)),
        Move(BLOW_DOWN, v, 0, (v, stranger)),
        Move("blow_up_free", fresh, pos, (stranger,)),
        Move("blow_up_edge", fresh, pos, (v, stranger)),
        Move("blow_up_edge", fresh, pos, (v, v)),
        Move("blow_up_free", v, pos, (v,)),
        Move("spawn", v, pos, ()),
        Move("spawn", fresh, len(g) + 1, ()),
        Move("spawn", fresh, -1, ()),
    ]


def outcome(fn):
    try:
        return "ok", fn()
    except (ValueError, NotMinusOne, UnknownVertex, UnknownEdge) as e:
        return "error", (type(e), str(e))


def test_draft_matches_rebuild_reference_on_random_move_sequences():
    rng = random.Random(20261018)
    kinds, rejected = set(), 0
    for _ in range(400):
        g = start = random_multigraph(rng, rng.randint(0, 8))
        draft = _Draft(g)
        log = []
        for _ in range(25):
            m = random_move(rng, g, log)
            want = outcome(lambda: rebuild_apply_move(g, m))
            got_one = outcome(lambda: apply_move(g, m))
            got_draft = outcome(lambda: draft.apply(m))
            if want[0] == "error":
                rejected += 1
                assert got_one == want and got_draft == want, m
                # a rejected move leaves the draft and its log as they were
                assert state(draft.freeze()) == state(g)
                assert draft.log == log
                continue
            kinds.add(m.kind)
            assert got_one[0] == got_draft[0] == "ok", m
            assert state(got_one[1]) == state(want[1]), m
            assert state(draft.freeze()) == state(want[1]), m
            g = want[1]
            log.append(m)
            assert draft.log == log
        # every accepted blow-down held its position, so the inverted log
        # puts each vertex back where it was: order, weights and edges
        assert MoveLog(tuple(log)).inverted().replay(g) == start
    assert kinds == {"spawn", "blow_up_free", "blow_up_edge", "blow_down"}
    assert rejected > 1000


def test_a_malformed_move_cannot_be_inverted():
    # inverting a move whose kind does not fit its anchors would turn it
    # into a valid move, so inverted raises what apply raises
    rng = random.Random(3)
    malformed = 0
    for _ in range(200):
        g = random_multigraph(rng, rng.randint(1, 6))
        v = rng.choice(g.vertices)
        for m in rejected_moves(g, v, g.next_id, 0) + [Move("flip", v, 0, (v,))]:
            inverse = outcome(m.inverted)
            if inverse[0] == "ok":
                assert inverse[1].inverted() == m
                continue
            malformed += 1
            applied = outcome(lambda: apply_move(g, m))
            assert applied[0] == "error" and inverse == applied, m
            assert outcome(MoveLog((m,)).inverted) == applied, m
            # in a long log, the first malformed move in reversed order
            # raises, wherever it lies
            long = list(standardize_chain(chain([rng.randint(5, 60), -2])).log)
            at = rng.randrange(len(long) + 1)
            earlier = Move("blow_up_free", 0, 0, ())
            log = MoveLog(long[:at // 2] + [earlier] + long[at // 2:at] + [m] + long[at:])
            assert outcome(log.inverted) == applied, m
    assert malformed == 6 * 200


def test_a_blow_down_must_hold_its_position():
    # the inverse of a blow-down reinserts its vertex at its position, so a
    # position that does not hold the vertex would restore another order
    g = chain([-2, -1, -2])
    for pos in (0, 2, 3, -2):
        m = Move(BLOW_DOWN, 2, pos, (1, 3))
        with pytest.raises(ValueError, match=f"vertex 2 is not at position {pos}"):
            apply_move(g, m)
        with pytest.raises(ValueError, match=f"vertex 2 is not at position {pos}"):
            rebuild_apply_move(g, m)
    m = Move(BLOW_DOWN, 2, 1, (1, 3))
    assert apply_move(apply_move(g, m), m.inverted()).vertices == (1, 2, 3)


def test_draft_reads_match_the_frozen_graph():
    rng = random.Random(5)
    for _ in range(200):
        g = random_multigraph(rng, rng.randint(1, 8))
        d = _Draft(g)
        for v in g.vertices:
            assert d.weight(v) == g.weight(v)
            assert sorted(d.adj[v]) == sorted(g.neighbors(v))
            for u in g.vertices:
                assert d.has_edge(v, u) == g.has_edge(v, u)
    with pytest.raises(UnknownVertex):
        _Draft(chain([-1])).weight(7)


def test_glue_matches_the_rebuild_reference():
    rng = random.Random(20261019)
    for _ in range(600):
        g = random_multigraph(rng, rng.randint(0, 8))
        d = _Draft(g)
        if g.vertices and rng.random() < 0.5:  # glue mid-run, after a move
            d.blow_up((rng.choice(g.vertices),))
        before = d.freeze()
        verts = before.vertices
        nbs = [rng.choice(verts) for _ in range(rng.randint(0, 3))] if verts else []
        weight = rng.randint(-4, 4)
        want, vid = rebuild_with_vertex(before, weight, nbs)
        log = list(d.log)
        assert d.glue(weight, nbs) == vid
        assert d.log == log  # gluing is not a move
        assert state(d.freeze()) == state(want)


def test_glue_onto_an_unknown_vertex_leaves_the_draft_unchanged():
    g = build_graph([(1, -2), (2, -1)], [(1, 2)])
    d = _Draft(g)
    with pytest.raises(UnknownVertex):
        rebuild_with_vertex(g, 0, (1, 9))
    with pytest.raises(UnknownVertex):
        d.glue(0, (1, 9))
    assert state(d.freeze()) == state(g)
    assert d.log == [] and d.adj == {1: [2], 2: [1]}


def test_snc_minimalize_log_matches_the_rescan_reference():
    rng = random.Random(11)
    contracted = 0
    for size in [rng.randint(0, 10) for _ in range(600)] + [40] * 60:
        g = random_multigraph(rng, size)
        protected = frozenset(v for v in g.vertices if rng.random() < 0.2)
        h, log = snc_minimalize(g, protected)
        want_g, want_log = rescan_snc_minimalize(g, protected)
        assert list(log) == want_log
        assert state(h) == state(want_g)
        contracted += len(want_log)
    assert contracted > 500
    # a long chain of -1s contracts from the smallest id, re-checking the
    # neighbours each blow-down spoils or frees
    g = chain([-1] * 300)
    h, log = snc_minimalize(g)
    want_g, want_log = rescan_snc_minimalize(g)
    assert list(log) == want_log and state(h) == state(want_g)


def test_contract_all_keeps_the_chain_rule_on_chains():
    """On a chain, the snc rule contracts exactly what the chain rule does.

    The chain rule is weight -1 and at most two neighbours, smallest id
    first, never the last vertex: a chain vertex's two neighbours are
    distinct and never meet, so the snc checks never bite.
    """
    def chain_rule(g, v):
        return g.weight(v) == -1 and len(g.neighbors(v)) <= 2

    rng = random.Random(17)
    sizes = [rng.randint(1, 12) for _ in range(800)] + list(range(1, 8)) * 10
    contracted, kept_last = 0, 0
    for n in sizes:
        ids = rng.sample(range(1, 4 * n + 1), n)
        weights = [rng.choice([-1, -1, -1, -1, -2, 0, 1]) for _ in ids]
        g = build_graph(list(zip(ids, weights)), list(zip(ids, ids[1:])))
        d = _Draft(g)
        d.contract_all(keep=1)
        want_g, want_log = rescan_snc_minimalize(g, keep=1, eligible=chain_rule)
        assert d.log == want_log
        assert state(d.freeze()) == state(want_g)
        contracted += len(want_log)
        kept_last += len(want_g) == 1 and want_g.weight(want_g.vertices[0]) == -1
    assert contracted > 2000 and kept_last > 50


def test_blow_down_rejections_keep_their_messages():
    g = build_graph([(1, -1), (2, -2), (3, -2), (4, -2)], [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(TooBranched, match="vertex 1 meets 3 intersection points"):
        blow_down(g, 1)
    with pytest.raises(NotMinusOne, match="vertex 2 has weight -2, need -1"):
        blow_down(g, 2)
    with pytest.raises(NotSnc, match="vertex 1 meets 2 twice"):
        blow_down(build_graph([(1, -1), (2, 0)], [(1, 2), (1, 2)]), 1)
    with pytest.raises(NotSnc, match="neighbors 2 and 3 already meet"):
        blow_down(build_graph([(1, -1), (2, 0), (3, 0)], [(1, 2), (1, 3), (2, 3)]), 1)


# ------------------------------------------------------ weight-sized runs


def sequential_ladder(d, fixed, moving, count, fixed_first=True):
    for _ in range(count):
        moving = d.blow_up((fixed, moving) if fixed_first else (moving, fixed)).vertex
    return moving


def sequential_ets(d, zero, side, count):
    for _ in range(count):
        zero = d.elementary_transformation(zero, side)[0].vertex


def random_chain(rng, n):
    """A chain on random ids, declared in random order, so neighbour lists vary."""
    ids = rng.sample(range(1, 3 * n + 3), n)
    edges = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in zip(ids, ids[1:])]
    declared = [(v, rng.randint(-4, 3)) for v in ids]
    rng.shuffle(declared)
    rng.shuffle(edges)
    return build_graph(declared, edges), ids


def draft_state(d):
    # element order too: the dicts' key order and each neighbour list's order
    return (list(d.order), list(d.weights.items()), list(d.adj.items()), d.next_id, list(d.log))


def run_both(g, patch, sequential):
    """The outcome and the draft after the patch and after the sequential moves."""
    sides = []
    for fn in (patch, sequential):
        d = _Draft(g)
        try:
            got = "ok", fn(d)
        except (NotZeroCurve, TooBranched, UnknownEdge, UnknownVertex) as e:
            got = "error", (type(e), str(e))
        sides.append((got, draft_state(d)))
    return sides


def run_counts(rng):
    return [0, 1, 2, rng.randint(3, 300)]


def test_a_ladder_patch_equals_its_blow_ups():
    rng = random.Random(20261020)
    seen = set()
    for _ in range(150):
        g, path = random_chain(rng, rng.randint(2, 7))
        i = rng.randrange(len(path) - 1)
        fixed, moving = (path[i], path[i + 1]) if rng.random() < 0.5 else (path[i + 1], path[i])
        if rng.random() < 0.1:  # not an edge: rejected by the first blow-up
            moving = rng.choice([v for v in path if v != fixed and v not in g.neighbors(fixed)]
                                or [g.next_id + 5])
        for count in run_counts(rng):
            for fixed_first in (True, False):
                patched, moved = run_both(
                    g, lambda d: d.blow_up_ladder(fixed, moving, count, fixed_first),
                    lambda d: sequential_ladder(d, fixed, moving, count, fixed_first))
                assert patched == moved, (g.vertices, g.edges, fixed, moving, count, fixed_first)
                seen.add((patched[0][0], min(count, 3), fixed_first))
    assert {("ok", count, f) for count in range(4) for f in (True, False)} <= seen
    assert ("error", 3, True) in seen


def test_an_elementary_run_equals_its_transformations():
    rng = random.Random(20261021)
    seen = set()
    for _ in range(250):
        g, path = random_chain(rng, rng.randint(1, 7))
        i = rng.randrange(len(path))
        zero = path[i]
        nbs = list(g.neighbors(zero))
        where = "tip" if len(nbs) <= 1 else "inside"
        weights = [(v, 0 if v == zero else g.weight(v)) for v in g.vertices]
        if rng.random() < 0.1:  # not a 0-vertex: rejected by the first transformation
            weights = [(v, g.weight(v) or 1) for v in g.vertices]
        g = build_graph(weights, g.edges)
        choices = nbs + ["free"] * (2 if where == "tip" else 1)
        side = rng.choice(choices + [g.next_id + 3] * (rng.random() < 0.1))
        for count in run_counts(rng):
            patched, moved = run_both(g, lambda d: d.elementary_run(zero, side, count),
                                      lambda d: sequential_ets(d, zero, side, count))
            assert patched == moved, (g.vertices, g.edges, zero, side, count)
            seen.add((patched[0][0], where, side == "free", min(count, 3)))
    assert {("ok", where, free, count) for where, free in (("tip", True), ("tip", False),
                                                             ("inside", False))
            for count in range(4)} <= seen
    assert ("error", "inside", True, 3) in seen  # a free transformation on a middle vertex


def test_a_run_past_the_log_ceiling_writes_nothing(monkeypatch):
    monkeypatch.setattr(moves_module, "MAX_LOG_MOVES", 20)
    g = chain([0, -3, 5])
    d = _Draft(g)
    d.blow_up_ladder(3, 2, 20)  # reaches the ceiling exactly
    before = draft_state(d)
    for run in (lambda: d.blow_up_ladder(3, 22, 1), lambda: d.elementary_run(1, "free", 1)):
        with pytest.raises(MoveLogTooLong, match="past the ceiling of 20"):
            run()
        assert draft_state(d) == before
    d = _Draft(g)
    with pytest.raises(MoveLogTooLong, match="a run of 22 moves would bring the move log "
                                             "to 22 moves, past the ceiling of 20"):
        d.elementary_run(1, "free", 11)
    assert draft_state(d) == draft_state(_Draft(g))
    with pytest.raises(MoveLogTooLong, match=r"more than 10\*\*100 moves, past"):
        d.blow_up_ladder(3, 2, 10 ** 4000)


@pytest.fixture
def constructions(monkeypatch):
    """Counts of WeightedGraph constructions, along either path, and of
    adjacency-index builds."""
    counts = {"graphs": 0, "indexes": 0}
    init = WeightedGraph.__init__
    trusted = WeightedGraph._trusted
    build_index = WeightedGraph._build_index

    def counted_init(self, *args):
        counts["graphs"] += 1
        init(self, *args)

    def counted_trusted(cls, *args):
        counts["graphs"] += 1
        return trusted(*args)

    def counted_index(self):
        counts["indexes"] += 1
        return build_index(self)

    monkeypatch.setattr(graph_module.WeightedGraph, "__init__", counted_init)
    monkeypatch.setattr(graph_module.WeightedGraph, "_trusted", classmethod(counted_trusted))
    monkeypatch.setattr(graph_module.WeightedGraph, "_build_index", counted_index)

    def measure(fn):
        counts.update(graphs=0, indexes=0)
        fn()
        return dict(counts)

    return measure


@pytest.fixture
def heap_pops(monkeypatch):
    """Counts of contraction-heap pops and of contract_all runs."""
    counts = {"pops": 0, "runs": 0}
    contract_all = _Draft.contract_all

    def counted_pop(heap):
        counts["pops"] += 1
        return heapq.heappop(heap)

    def counted_contract_all(self, *args, **kwargs):
        counts["runs"] += 1
        return contract_all(self, *args, **kwargs)

    monkeypatch.setattr(moves_module, "heappop", counted_pop)
    monkeypatch.setattr(_Draft, "contract_all", counted_contract_all)

    def measure(fn):
        counts.update(pops=0, runs=0)
        result = fn()
        return result, dict(counts)

    return measure


def test_the_contraction_heap_holds_only_candidates(heap_pops):
    # the heap starts with the (-1)-vertices alone, so the pops follow the
    # contractions and the rounds, not the number of vertices
    assert heap_pops(lambda: _Draft(chain([-2] * 2000)).contract_all())[1]["pops"] == 0
    result, counts = heap_pops(lambda: standardize_chain(chain([120, -2])))
    contractions = sum(m.kind == BLOW_DOWN for m in result.log)
    assert counts["pops"] <= 4 * contractions + 4 * counts["runs"]


def test_pipeline_builds_as_many_graphs_at_every_size(constructions):
    small = constructions(lambda: theorem_pipeline(CuspPair(101, 100)))
    large = constructions(lambda: theorem_pipeline(CuspPair(401, 400)))
    assert large["graphs"] <= small["graphs"] and large["indexes"] <= small["indexes"]
    assert small["graphs"] <= 14


@pytest.mark.parametrize("n,m", [(13, 5), (164, 163)])
def test_a_certificate_reads_each_member_once(constructions, monkeypatch, n, m):
    # the frozen graph, one induced graph per special member, the curve's
    # fiber and the rebuild; one index, the frozen graph's, which each
    # induced graph restricts to its own; and no SubDivisor, since
    # induced_graph checks each selection itself
    subdivisors = []
    init = graph_module.SubDivisor.__init__

    def counted_init(self, *args):
        subdivisors.append(args)
        init(self, *args)

    monkeypatch.setattr(graph_module.SubDivisor, "__init__", counted_init)
    counts = constructions(lambda: theorem_pipeline(CuspPair(n, m)))
    assert counts["graphs"] <= 5 and counts["indexes"] == 1
    assert len(subdivisors) == 0


@pytest.mark.parametrize("k", [100, 400])
def test_a_completion_and_a_rebuild_freeze_one_draft(constructions, k):
    pair = CuspPair(k + 1, k)
    assert constructions(lambda: build_completion(pair))["graphs"] <= 9
    for history in (theorem_pipeline(pair).history, build_completion(pair).history):
        assert constructions(history.rebuild) == {"graphs": 1, "indexes": 0}


@pytest.mark.parametrize("w", [60, 200])
def test_chain_rewriting_freezes_once(constructions, w):
    # the input's index is built by the NotAChain check; the rounds read the
    # draft, and only the returned graph is frozen
    g = chain([w])
    assert constructions(lambda: standardize_chain(g)) == {"graphs": 1, "indexes": 1}


def test_a_run_of_moves_freezes_once(constructions):
    g = chain([-2] * 50)
    history = theorem_pipeline(CuspPair(41, 40)).history
    assert len(history.resolution) == 82
    assert constructions(lambda: history.resolution.replay(history.seed)) == {
        "graphs": 1, "indexes": 0}
    assert constructions(lambda: snc_minimalize(g)) == {"graphs": 1, "indexes": 0}
    assert constructions(lambda: apply_move(g, Move("spawn", 99, 0))) == {
        "graphs": 1, "indexes": 0}


# ------------------------------------- graphs taken over from canonical state


def assert_as_constructed(got, order, weights, edges, next_id):
    """got equals the public constructor's graph from the same data, index too.

    The index's key order is the canonical order the walks start from.
    """
    want = WeightedGraph(order, weights, edges, next_id)
    assert state(got) == state(want) and got._weight == want._weight
    assert list(got._index().items()) == list(want._build_index().items())


def test_a_frozen_draft_equals_the_public_constructors_graph():
    rng = random.Random(20261021)
    for _ in range(300):
        d = _Draft(random_multigraph(rng, rng.randint(0, 8)))
        for _ in range(12):
            m = random_move(rng, d.freeze(), d.log)
            outcome(lambda: d.apply(m))
            frozen = d.freeze()
            # each edge once, high end first, for the constructor to normalize
            edges = [(b, a) for a, ns in d.adj.items() for b in ns if a < b]
            assert_as_constructed(frozen, list(d.order), dict(d.weights), edges, d.next_id)
            # a later patch leaves it as it was: no order, weights or edges shared
            before = state(frozen), dict(frozen._weight)
            d.blow_up((rng.choice(d.order),) if d.order else ())
            assert (state(frozen), dict(frozen._weight)) == before


def test_an_induced_graph_equals_the_public_constructors_graph():
    rng = random.Random(20261022)
    parallel = 0
    for _ in range(300):
        g = random_multigraph(rng, rng.randint(1, 9))
        if g.edges and rng.random() < 0.6:
            g = build_graph([(v, g.weight(v)) for v in g.vertices],
                            list(g.edges) + rng.choices(g.edges, k=rng.randint(1, 3)))
        for _ in range(4):
            sel = [v for v in g.vertices if rng.random() < 0.6]
            picks = sel + rng.choices(sel, k=2) if sel else []
            rng.shuffle(picks)
            h = induced_graph(g, picks)
            inside = [e for e in g.edges if set(e) <= set(sel)]
            parallel += len(set(inside)) < len(inside)
            assert_as_constructed(h, sel, {v: g.weight(v) for v in sel},
                                  [(b, a) for a, b in inside], g.next_id)
            g = h if len(h) and rng.random() < 0.3 else g  # select again from a selection
    assert parallel > 50


@pytest.fixture
def applied(monkeypatch):
    """Counts of _Draft.apply calls."""
    counts = {"apply": 0}
    apply = _Draft.apply

    def counted(self, m):
        counts["apply"] += 1
        apply(self, m)

    monkeypatch.setattr(_Draft, "apply", counted)

    def measure(fn):
        counts["apply"] = 0
        return fn(), counts["apply"]

    return measure


@pytest.mark.parametrize("weights,per_unit", [
    (lambda w: [w, -2], 1),  # a ladder of w blow-ups
    (lambda w: [0, -w], 2),  # a run of w free transformations
    (lambda w: [-w, 0, -2], 2),  # w - 1 transformations on the middle 0, side the -2
    (lambda w: [0, w], 2),  # w transformations on the 0, side the w
    (lambda w: [w], 1),  # the single-vertex ramp
])
def test_standardizing_applies_as_many_moves_at_every_weight(applied, weights, per_unit):
    # each weight-sized run is one draft patch, so the moves sent through
    # apply do not grow with the weight, while the log does
    small, small_applied = applied(lambda: standardize_chain(chain(weights(100))))
    large, large_applied = applied(lambda: standardize_chain(chain(weights(1600))))
    assert large_applied == small_applied <= 12
    assert len(large.log) - len(small.log) == 1500 * per_unit


@pytest.mark.parametrize("weights", [
    lambda w: [w, -2],  # a ladder of w blow-ups
    lambda w: [w],  # the single-vertex ramp, a ladder anchored the other way
])
def test_replaying_a_ladder_applies_as_many_moves_at_every_weight(applied, weights):
    # the replay writes a ladder tail, and the inverted replay the tail's
    # blow-downs, as one patch each, so the moves sent through apply do not
    # grow with the weight
    counts = []
    for w in (100, 1600):
        g = chain(weights(w))
        res = standardize_chain(g)
        forward, forward_applied = applied(lambda: res.log.replay(g))
        back, back_applied = applied(lambda: res.log.inverted().replay(res.graph))
        assert state(forward) == state(res.graph) and back == g
        counts.append((forward_applied, back_applied))
    assert counts[0] == counts[1]
    assert max(counts[0]) <= 12


class CountedLog(tuple):
    """A move tuple that counts the moves read from it by index, a slice as its length."""

    reads = 0

    def __getitem__(self, key):
        got = super().__getitem__(key)
        self.reads += len(got) if isinstance(key, slice) else 1
        return got


@pytest.mark.parametrize("n", [600, 3000])
def test_a_replay_reads_each_move_a_bounded_number_of_times(applied, n):
    # n ladders of 50 edge blow-ups on 1, each followed by a free blow-up
    # that ends its run: measuring a run by a scan that restarts at
    # moves[i:] would read the rest of the log once per run, thousands of
    # reads per move, while a scan in place reads each move a few times
    g = chain([-1, -1])
    d = _Draft(g)
    moving = 2
    for _ in range(n):
        moving = d.blow_up_ladder(1, moving, 50)
        d.blow_up((moving,))
    after = d.freeze()
    log = MoveLog(d.log)
    for start, end, moves in ((g, after, log.moves), (after, g, log.inverted().moves)):
        counted = CountedLog(moves)
        replay = _Draft(start)
        _, n_applied = applied(lambda: replay.replay(counted))
        assert replay.freeze() == end and replay.log == list(moves)
        # the runs were found: apply saw each free blow-up and each
        # ladder's first move (inverted, also its last), not 51 per ladder
        assert n_applied <= 3 * n
        reads_per_move = counted.reads / len(moves)
        assert reads_per_move < 5


# ---------------------------------------------- replay against apply


def replay_one_at_a_time(d, moves):
    for m in moves:
        d.apply(m)


def random_ladder_log(rng):
    """A chain and a log of ladders, their inverses, contractions and random moves."""
    g, _path = random_chain(rng, rng.randint(2, 6))
    d = _Draft(g)
    for _ in range(rng.randint(1, 6)):
        roll = rng.random()
        if roll < 0.45:
            fixed = rng.choice(d.order)
            if d.adj[fixed]:
                d.blow_up_ladder(fixed, rng.choice(d.adj[fixed]), rng.randint(0, 300),
                                 rng.random() < 0.5)
        elif roll < 0.7 and d.log:
            # undo the last moves, a ladder tail among them as a rule
            for m in list(reversed(d.log[-rng.randint(1, len(d.log)):])):
                d.apply(m.inverted())
        elif roll < 0.8:
            d.contract_all(keep=1)
        else:
            here = d.freeze()
            for _ in range(rng.randint(1, 4)):
                m = random_move(rng, here, d.log)
                if outcome(lambda: d.apply(m))[0] == "ok":
                    here = d.freeze()
    return g, list(d.log)


def tampered(rng, moves, g):
    """moves with one move changed, dropped or doubled, and what was done."""
    moves = list(moves)
    i = rng.randrange(len(moves))
    kind, v, pos, anchors = moves[i]
    how = rng.choice(["vertex", "position", "anchor", "kind", "drop", "double"])
    if how == "vertex":
        moves[i] = Move(kind, v + rng.choice((-1, 1)), pos, anchors)
    elif how == "position":
        moves[i] = Move(kind, v, pos + rng.choice((-1, 1)), anchors)
    elif how == "anchor" and anchors:
        j = rng.randrange(len(anchors))
        other = rng.choice([anchors[j] - 1, anchors[j] + 1, v, rng.choice(g.vertices)])
        moves[i] = Move(kind, v, pos, anchors[:j] + (other,) + anchors[j + 1:])
    elif how == "kind":
        moves[i] = Move(rng.choice([k for k in (*BLOW_UP_KINDS, BLOW_DOWN) if k != kind]),
                        v, pos, anchors)
    elif how == "drop":
        del moves[i]
    else:
        moves.insert(i, moves[i])
    return moves, how


def replayed(g, moves, replay):
    """The outcome, error type and message included, and the draft after the replay."""
    d = _Draft(g)
    try:
        replay(d, moves)
        got = "ok"
    except Exception as e:  # noqa: BLE001 - both replays must fail alike
        got = type(e), str(e)
    return got, d


def test_a_replay_equals_its_moves_one_at_a_time(applied):
    rng = random.Random(20261022)
    seen, patched = set(), 0
    for _ in range(300):
        g, log = random_ladder_log(rng)
        if not log:
            continue
        inverse = list(MoveLog(log).inverted())
        cases = [(log, "as made"), (inverse, "as made")]
        cases += [tampered(rng, log, g) for _ in range(3)] + [tampered(rng, inverse, g)]
        for moves, how in cases:
            (got, d), n_applied = applied(lambda: replayed(g, moves, _Draft.replay))
            want, one_at_a_time = replayed(g, moves, replay_one_at_a_time)
            assert (got, draft_state(d)) == (want, draft_state(one_at_a_time)), how
            whole = outcome(lambda: MoveLog(moves).replay(g))
            if got == "ok":
                assert whole[0] == "ok" and state(whole[1]) == state(one_at_a_time.freeze())
                patched += len(moves) - n_applied
            else:
                assert whole == ("error", got), how
            seen.add((how, got == "ok"))
    assert ("as made", True) in seen
    assert {(how, False) for how in ("vertex", "position", "anchor", "kind", "drop",
                                     "double")} <= seen
    assert patched > 50_000


def retouched(rng, g):
    """g with a weight changed, an edge added, two ids swapped in the order or in the graph."""
    order, weights, edges = list(g.vertices), {v: g.weight(v) for v in g.vertices}, list(g.edges)
    how = rng.choice(["weight", "edge", "order", "ids"])
    if how == "weight":
        v = rng.choice(order)
        weights[v] += rng.choice((-1, 1))
    elif how == "edge":
        a, b = rng.sample(order, 2)
        edges.append((a, b))
    elif how == "order":
        i, j = rng.sample(range(len(order)), 2)
        order[i], order[j] = order[j], order[i]
    else:
        a, b = rng.sample(order, 2)
        ids = {v: v for v in order} | {a: b, b: a}
        weights = {ids[v]: w for v, w in weights.items()}
        edges = [(ids[u], ids[v]) for u, v in edges]
    return WeightedGraph(order, weights, edges, g.next_id), how


def retouched_run(rng, moves, g):
    """moves with every move from one on given another fixed anchor or a shifted position."""
    i = rng.randrange(len(moves))
    how = rng.choice(["fixed", "position"])
    if how == "fixed":
        old, new = rng.choice(moves[i].anchors or (None,)), rng.choice(g.vertices)
        tail = [m._replace(anchors=tuple(new if a == old else a for a in m.anchors))
                for m in moves[i:]]
    else:
        shift = rng.choice((-2, -1, 1))
        tail = [m._replace(position=m.position + shift) for m in moves[i:]]
    return moves[:i] + tail, how


def test_a_ladder_replay_checks_the_draft_before_it_writes():
    # logs that follow a ladder's pattern over drafts that do not hold the
    # ladder: a weight, an edge or the order changed, or a whole run given
    # another fixed anchor or positions; the replay must fail, or succeed,
    # as the moves one at a time do
    rng = random.Random(20261023)
    seen = set()
    for _ in range(1500):
        g, path = random_chain(rng, rng.randint(2, 5))
        d = _Draft(g)
        fixed = rng.choice(path)
        d.blow_up_ladder(fixed, rng.choice(d.adj[fixed]), rng.randint(2, 40), rng.random() < 0.5)
        after = d.freeze()
        forward, inverse = list(d.log), list(MoveLog(d.log).inverted())
        cases = []
        for start, moves, down in ((g, forward, False), (after, inverse, True)):
            changed, how = retouched(rng, start)
            cases.append((changed, moves, how, down))
            cases.append((start, *retouched_run(rng, moves, start), down))
        for start, moves, how, down in cases:
            got, patched = replayed(start, moves, _Draft.replay)
            want, one_at_a_time = replayed(start, moves, replay_one_at_a_time)
            assert (got, draft_state(patched)) == (want, draft_state(one_at_a_time)), how
            seen.add((how, down, got == "ok"))
    # a blow-down must hold its position, so a shifted run always fails
    assert {(how, True, False) for how in ("weight", "edge", "order", "ids", "fixed",
                                           "position")} <= seen
    assert {(how, True, True) for how in ("weight", "edge", "order", "ids", "fixed")} <= seen


def test_a_ladder_closed_into_a_cycle_is_blown_down_one_move_at_a_time():
    # 0 - 1 - ... - 6 - 7 - 0 and blow-downs of 7, 6, ..., 1, each on 0 and
    # the vertex below: the last meets 0 twice, so fixed may not be lo - 1
    g = build_graph([(0, -3)] + [(v, -2) for v in range(1, 7)] + [(7, -1)],
                    [(v, v + 1) for v in range(7)] + [(7, 0)])
    moves = [Move(BLOW_DOWN, u, u, (0, u - 1)) for u in range(7, 0, -1)]
    got, patched = replayed(g, moves, _Draft.replay)
    want, one_at_a_time = replayed(g, moves, replay_one_at_a_time)
    assert got == want == (ValueError, "vertex 1 meets 0 twice")
    assert draft_state(patched) == draft_state(one_at_a_time)
