"""Birational rewriting on weighted graphs.

Two primitive moves.  blow_up(g, anchors) blows up a point on the curves
listed in anchors and inserts a fresh (-1)-vertex meeting each of them
once; each anchor's weight drops by 1, and with two anchors their edge is
replaced.  The anchors decide the move's kind (Move.kind): none is
"spawn", a fresh point on no tracked curve, one "blow_up_free", a free
point of that curve, two "blow_up_edge", their intersection point.
blow_down is the exact inverse, and _Draft.blow_down is the one statement
of the contraction rule that every contraction goes through: the vertex
has weight -1 and meets the rest in at most two points, transversally, on
curves that do not already meet (Castelnuovo's criterion for snc models).
Every applied move yields a Move record carrying a complete structural
patch, so a MoveLog can be replayed forward or inverted exactly, restoring
vertex ids and canonical order bit for bit.  A Move is an immutable named
tuple (kind, vertex, position, anchors); which kinds fit which anchor
counts, and what each inverts to, is the one table _INVERSE_KIND, which
apply and Move.inverted read (MoveLog.inverted looks each move's inverse
kind up in it, at C speed, and raises Move.inverted's error for the first
malformed move), so a move apply rejects cannot be inverted either.

Every move but those of the two weight-sized runs and of the ladder tails
a replay finds (both below) is applied by one function, _Draft.apply, which
patches a
mutable copy of the graph (the order list, the weights and each vertex's
neighbour list) in time proportional to the vertex's degree, plus a
C-level list insert or delete at the move's position in the order, and
records the move in the draft's log.  It branches on the kind once and
makes every check inline, before the first write, calling no helper per
move.  The chain rewriting's loops whose count is a weight are one patch
each: _Draft.blow_up_ladder (count edge blow-ups on one vertex, each on
its edge to the one before) and _Draft.elementary_run (count elementary
transformations, each on the 0-vertex the one before made).  Each sends
its first move through apply, with every check; after it the moving vertex
is last in the order and in its neighbours' lists, so the remaining moves
cannot fail, and the patch appends them to the log in closed form and
writes their net change to the order, the weights and the neighbour lists
at once: for the ladder, the tail patch _Draft._ladder_tail.  The draft, the
element order of every list and the log end as the moves one at a time
leave them, which tests/test_move_engine.py checks against sequential
blow_up and elementary_transformation calls on random chains.  A run that
would bring the log past MAX_LOG_MOVES raises MoveLogTooLong before it
writes anything.  A replay (_Draft.replay) finds ladder tails in the moves
themselves: after an edge blow-up, the edge blow-ups that continue it as a
ladder, ids and positions rising by one, are one _ladder_tail patch, and
after a blow-down, the blow-downs that undo a ladder tail, ids and
positions falling by one, are one blow-down patch.  The length of each run
is measured at C speed, by one scan of the log in place that stops at the
first move off the run, and every check the moves would make one at a time
is made before the first write; a run that fails one goes through apply, so
a tampered log fails with apply's error at its move.  tests/test_move_engine.py
checks replays against apply one move at a time on random and tampered
logs.  _Draft.glue appends a fresh vertex wired to existing ones, the one
assembly step outside the calculus, and logs nothing.  A run of moves (a
replay, a minimalization, a chain rewriting, a whole resolution
pipeline with its gluing) patches one draft, freezes it into an
immutable graph once, at the end, and reads its move log from the draft;
a single move is a draft, one patch and one freeze.  The fiber census opens
one draft per parent it expands, keys each child on it between a blow-up
and the inverse move that undoes it, and freezes only a child it keeps.  A
run that must read the shape between moves walks the draft's adj with
graph._walk, as the chain rewriting does each round and the census each
child, rather than freezing it.

Composite operations: snc_minimalize (repeated contraction of unprotected
(-1)-vertices that blow_down accepts) and elementary_transformation (blow
up on a 0-vertex, then blow the old vertex down).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from itertools import compress, count, islice, repeat
from operator import contains, itemgetter, ne
from typing import Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import (
    MoveLogTooLong,
    NotMinusOne,
    NotSnc,
    NotZeroCurve,
    TooBranched,
    UnknownEdge,
    UnknownVertex,
)
from .graph import WeightedGraph

BLOW_UP_FREE = "blow_up_free"
BLOW_UP_EDGE = "blow_up_edge"
BLOW_DOWN = "blow_down"
SPAWN = "spawn"

#: a blow-up's kind, indexed by the number of curves through its centre
BLOW_UP_KINDS = (SPAWN, BLOW_UP_FREE, BLOW_UP_EDGE)

#: the inverse kind of every well-formed move, keyed by (kind, anchor count):
#: a blow-up's anchors fix its kind, and a blow-down keeps the anchors of the
#: blow-up it undoes
_INVERSE_KIND = {
    (SPAWN, 0): BLOW_DOWN,
    (BLOW_UP_FREE, 1): BLOW_DOWN,
    (BLOW_UP_EDGE, 2): BLOW_DOWN,
    (BLOW_DOWN, 0): SPAWN,
    (BLOW_DOWN, 1): BLOW_UP_FREE,
    (BLOW_DOWN, 2): BLOW_UP_EDGE,
}


#: the most moves a weight-sized run (_Draft.blow_up_ladder, _Draft.elementary_run)
#: may bring a draft's log to, above every chain the tests, the CLI digests and
#: the benchmark standardize; a run past it is refused before it writes anything
MAX_LOG_MOVES = 200_000


def _count_text(n: int) -> str:
    # a count from a weight near the parser's digit limit, doubled, may have
    # more digits than Python prints
    return str(n) if n < 10 ** 100 else "more than 10**100"


def _malformed(kind: str, anchors: Tuple[int, ...]) -> ValueError:
    """The error for a move whose kind and anchors are not in _INVERSE_KIND."""
    if len(anchors) > 2:
        return ValueError(f"a blow-up centre lies on at most two curves, got {anchors}")
    return ValueError(f"{kind!r} move cannot have anchors {anchors}")


class Move(NamedTuple):
    """One structural patch.

    vertex is the id created (blow_up_*, spawn) or removed (blow_down).
    position is its index in the canonical vertex order, recorded so the
    inverse move can reinsert it exactly where it was.  anchors are the
    other vertices involved: the carrier for a free blow-up, the edge pair
    for an edge blow-up, the neighbors (with multiplicity) for a blow-down.
    """

    kind: str
    vertex: int
    position: int
    anchors: Tuple[int, ...] = ()

    def inverted(self) -> "Move":
        """The move that undoes this one; a malformed move raises apply's ValueError."""
        kind = _INVERSE_KIND.get((self.kind, len(self.anchors)))
        if kind is None:
            raise _malformed(self.kind, self.anchors)
        return Move(kind, self.vertex, self.position, self.anchors)


#: Move(kind, vertex, position, anchors) from one 4-tuple, at C speed
_make_move = partial(tuple.__new__, Move)

#: exhaust an iterator at C speed
_drain = partial(deque, maxlen=0)


def _ladder_moves(kind: str, fixed: int, vertex: int, position: int, fixed_first: bool,
                  step: int) -> Iterator[tuple]:
    """The ladder moves from (kind, vertex, position, (fixed, vertex - 1)) on, as plain tuples.

    Vertex and position move by step from each move to the next, and the
    anchors list fixed first or last as fixed_first says.  The tuples equal
    the Move records they stand for, and never end.
    """
    before = count(vertex - 1, step)
    anchors = zip(repeat(fixed), before) if fixed_first else zip(before, repeat(fixed))
    return zip(repeat(kind), count(vertex, step), count(position, step), anchors)


def _ladder_run(moves: Sequence[Move], i: int, kind: str, vertex: int, position: int,
                step: int, a: int, b: int) -> Tuple[int, bool, int]:
    """The ladder run from moves[i] on: (fixed, fixed_first, length), length 0 if none.

    moves[i] must be (kind, vertex, position, (a, vertex - 1)), fixed a
    first, or (kind, vertex, position, (vertex - 1, b)), fixed b last; the
    run is the moves from it on that follow _ladder_moves by step.
    """
    anchors = moves[i][3]
    if anchors == (a, vertex - 1):
        fixed, fixed_first = a, True
    elif anchors == (vertex - 1, b):
        fixed, fixed_first = b, False
    else:
        return a, True, 0
    expected = _ladder_moves(kind, fixed, vertex, position, fixed_first, step)
    # one C-level scan of the log in place, stopping at the first move that
    # differs, so a run costs time in proportion to its own length and no
    # slice of the rest of the log is made
    read = map(moves.__getitem__, range(i, len(moves)))
    return fixed, fixed_first, next(compress(count(), map(ne, read, expected)), len(moves) - i)


@dataclass(frozen=True)
class MoveLog:
    moves: Tuple[Move, ...] = ()

    def __post_init__(self):
        # a list would leave the log unequal to the same moves in a tuple,
        # unhashable, and open to change
        object.__setattr__(self, "moves", tuple(self.moves))

    def __len__(self) -> int:
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)

    def __add__(self, other: "MoveLog") -> "MoveLog":
        if not isinstance(other, MoveLog):
            return NotImplemented
        return MoveLog(self.moves + other.moves)

    def inverted(self) -> "MoveLog":
        """The log that undoes this one: each move inverted, last first.

        The moves are built at C speed from the log's columns; a malformed
        move raises Move.inverted's error, for the first one in reversed
        order.
        """
        moves = self.moves[::-1]

        def column(k):
            return map(itemgetter(k), moves)

        try:
            inverse = map(_INVERSE_KIND.__getitem__, zip(column(0), map(len, column(3))))
            return MoveLog(tuple(map(_make_move, zip(inverse, column(1), column(2), column(3)))))
        except (KeyError, TypeError):
            for m in moves:
                m.inverted()
            raise

    def replay(self, g: WeightedGraph) -> WeightedGraph:
        d = _Draft(g)
        d.replay(self.moves)
        return d.freeze()


class _Draft:
    """A graph being rewritten: moves patch it in place, freeze() copies it out.

    order is the canonical vertex order, weights maps ids to weights,
    adj lists each vertex's neighbours, one entry per edge, in no
    particular order, log lists the moves applied, oldest first, and
    next_id is above every id the draft holds.  weight and has_edge answer
    as WeightedGraph's do.
    """

    __slots__ = ("order", "weights", "adj", "next_id", "log")

    def __init__(self, g: WeightedGraph):
        self.order: List[int] = list(g.vertices)
        self.weights: Dict[int, int] = dict(g._weight)
        adj: Dict[int, List[int]] = {v: [] for v in self.order}
        for a, b in g.edges:
            adj[a].append(b)
            adj[b].append(a)
        self.adj = adj
        self.next_id: int = g.next_id
        self.log: List[Move] = []

    def freeze(self) -> WeightedGraph:
        """The current graph, which later patches leave unchanged."""
        edges = [(a, b) for a, ns in self.adj.items() for b in ns if a < b]
        return WeightedGraph(self.order, self.weights, edges, self.next_id)

    # ------------------------------------------------------------ reads

    def require_vertex(self, v: int) -> None:
        if v not in self.weights:
            raise UnknownVertex(f"no vertex {v!r}")

    def weight(self, v: int) -> int:
        self.require_vertex(v)
        return self.weights[v]

    def has_edge(self, a: int, b: int) -> bool:
        return b in self.adj.get(a, ())

    # ----------------------------------------------------------- writes

    def apply(self, m: Move) -> None:
        """Mechanically apply a Move patch (no snc precondition re-checks).

        A blow-down undoes exactly the patch of the blow-up with the same
        anchors, so the kind must match the anchor count (see blow_up), and
        its position must hold its vertex, where the inverse reinserts it.
        Every check runs before the first write, so a rejected move leaves
        the draft, and its log, as it was; an accepted one is appended to
        the log.
        """
        kind, v, position, anchors = m
        n = len(anchors)
        if (kind, n) not in _INVERSE_KIND:
            raise _malformed(kind, anchors)
        order, weights, adj = self.order, self.weights, self.adj
        if kind == BLOW_DOWN:
            if v not in weights:
                raise UnknownVertex(f"no vertex {v!r}")
            if weights[v] != -1:
                raise NotMinusOne(f"vertex {v} has weight {weights[v]}")
            # the neighbours must be the anchors up to order, and at most
            # two items have at most two orders
            nbs = adj[v]
            if n == 2:
                a, b = anchors
                matched = nbs == [a, b] or nbs == [b, a]
            else:
                matched = nbs == list(anchors)
            if not matched:
                raise ValueError(f"move anchors {anchors} do not match the graph")
            if n == 2 and a == b:
                raise ValueError(f"vertex {v} meets {a} twice")
            if not 0 <= position < len(order) or order[position] != v:
                raise ValueError(f"vertex {v} is not at position {position}")
            del order[position]
            del weights[v]
            del adj[v]
            for u in nbs:
                adj[u].remove(v)
                weights[u] += 1
            if n == 2:
                adj[a].append(b)
                adj[b].append(a)
        else:
            if n == 2:
                a, b = anchors
                if b not in adj.get(a, ()):
                    raise UnknownEdge(f"no edge {a}-{b}")
            for u in anchors:
                if u not in weights:
                    raise UnknownVertex(f"no vertex {u!r}")
            if v in weights:
                raise ValueError(f"move would recreate existing vertex {v}")
            if not 0 <= position <= len(order):
                raise ValueError(f"insertion position {position} out of range")
            order.insert(position, v)
            if n == 2:
                adj[a].remove(b)
                adj[b].remove(a)
            adj[v] = list(anchors)
            weights[v] = -1
            for u in anchors:
                adj[u].append(v)
                weights[u] -= 1
            if v >= self.next_id:
                self.next_id = v + 1
        self.log.append(m)

    def replay(self, moves: Sequence[Move]) -> None:
        """Apply moves in order, leaving draft and log as apply one at a time does.

        Moves that continue the move before them as a ladder tail are one
        patch: edge blow-ups on one fixed curve, each on its edge to the
        vertex the one before made (_replay_ladder), or blow-downs that
        undo such a tail from its last vertex (_replay_ladder_down).  Each
        run is found in the moves themselves: a tail may follow an edge
        blow-up whose vertex the next move has as an anchor, and an undone
        tail a blow-down whose anchors hold the next move's vertex, one
        below its own.  Any other move costs a few comparisons more than
        apply.
        """
        apply = self.apply
        n = len(moves)
        steps = enumerate(moves, 1)
        for i, m in steps:
            apply(m)
            if i < n:
                kind = m[0]
                if kind == BLOW_UP_EDGE:
                    if m[1] in moves[i][3]:
                        _drain(islice(steps, self._replay_ladder(moves, i, m)))
                elif kind == BLOW_DOWN:
                    below = moves[i][1]
                    if below in m[3] and below == m[1] - 1:
                        _drain(islice(steps, self._replay_ladder_down(moves, i, m)))

    def _replay_ladder(self, moves: Sequence[Move], i: int, head: Move) -> int:
        """Write the ladder tail from moves[i] on that continues the edge blow-up head.

        Returns the number of moves written, 0 if moves[i] starts no tail.
        head, just applied, made base on an edge of fixed and left it last
        in fixed's list, so the tail's blow-ups cannot fail once their ids
        are fresh; if they are not, the tail goes through apply instead.
        """
        _kind, base, position, (a, b) = head
        fixed, fixed_first, tail = _ladder_run(moves, i, BLOW_UP_EDGE, base + 1, position + 1,
                                               1, a, b)
        run = moves[i:i + tail]
        if tail and base + 1 >= self.next_id:
            self._ladder_tail(fixed, base, position + 1, base + tail, fixed_first, run)
        else:
            _drain(map(self.apply, run))
        return tail

    def _replay_ladder_down(self, moves: Sequence[Move], i: int, head: Move) -> int:
        """Write the blow-downs from moves[i] on that, after head, undo a ladder tail.

        Returns the number of moves written, 0 if moves[i] starts no such
        run.  The run blows down hi = head's vertex - 1, then hi - 1, down
        to lo, each on fixed and the vertex below it.  If the draft does
        not hold such a tail (_holds_ladder), the run goes through apply
        instead, which raises its error at its move.
        """
        _kind, top, position, anchors = head
        if len(anchors) != 2:
            return 0
        fixed, _fixed_first, tail = _ladder_run(moves, i, BLOW_DOWN, top - 1, position - 1,
                                                -1, *anchors)
        run, hi, lo, start = moves[i:i + tail], top - 1, top - tail, position - tail
        if not tail or not self._holds_ladder(fixed, lo, hi, start):
            _drain(map(self.apply, run))
            return tail
        order, weights, adj = self.order, self.weights, self.adj
        self.log.extend(run)
        del order[start:position]
        _drain(map(weights.__delitem__, range(lo, top)))
        _drain(map(adj.__delitem__, range(lo, top)))
        weights[fixed] += tail
        weights[lo - 1] += 1
        adj[fixed].remove(hi)
        adj[fixed].append(lo - 1)
        adj[lo - 1].remove(lo)
        adj[lo - 1].append(fixed)
        return tail

    def _holds_ladder(self, fixed: int, lo: int, hi: int, start: int) -> bool:
        """Whether blow-downs of hi, hi - 1, ..., lo, each on fixed and the vertex below, succeed.

        These are the checks the blow-downs one at a time make: fixed lies
        outside lo - 1, ..., hi, the order holds lo, ..., hi from start on,
        hi weighs -1 and meets fixed and hi - 1, and every other vertex of
        the run weighs -2 and meets the two beside it.  A negative start
        slices fewer vertices than the run has, so it fails the order
        check.  For the last, the lists of lo, ..., hi - 1 hold two entries
        each, one the vertex below; the vertex above lists each, so each
        lists it too, since every edge is in both its ends' lists.
        """
        order, weights, adj = self.order, self.weights, self.adj
        if lo - 1 <= fixed <= hi or order[start:start + hi - lo + 1] != list(range(lo, hi + 1)):
            return False
        below = range(lo, hi)
        inner = list(map(adj.__getitem__, below))
        return (weights[hi] == -1 and adj[hi] in ([fixed, hi - 1], [hi - 1, fixed])
                and not any(map(ne, map(weights.__getitem__, below), repeat(-2)))
                and sum(map(len, inner)) == 2 * len(below)
                and all(map(contains, inner, range(lo - 1, hi - 1))))

    def glue(self, weight: int, neighbors: Iterable[int] = ()) -> int:
        """Append a fresh vertex meeting each listed neighbour once; returns its id.

        This is the assembly step outside the blow-up calculus (gluing a
        resolved germ onto its exceptional locus), so it is not logged.
        Every neighbour is checked before the first write.
        """
        nbs = tuple(neighbors)
        for u in nbs:
            self.require_vertex(u)
        vid = self.next_id
        self.order.append(vid)
        self.weights[vid] = weight
        self.adj[vid] = list(nbs)
        for u in nbs:
            self.adj[u].append(vid)
        self.next_id = vid + 1
        return vid

    def blow_up(self, anchors: Iterable[int] = ()) -> Move:
        anchors = tuple(anchors)
        if len(anchors) > 2:
            raise _malformed(BLOW_UP_EDGE, anchors)
        m = Move(BLOW_UP_KINDS[len(anchors)], self.next_id, len(self.order), anchors)
        self.apply(m)
        return m

    def blow_down(self, v: int) -> Move:
        """Contract v by the contraction rule; the anchors are its neighbours in canonical order."""
        w = self.weight(v)
        if w != -1:
            raise NotMinusOne(f"vertex {v} has weight {w}, need -1")
        nbs = tuple(self.adj[v])
        if len(nbs) >= 3:
            raise TooBranched(f"vertex {v} meets {len(nbs)} intersection points")
        if len(nbs) == 2:
            nbs = tuple(sorted(nbs, key=self.order.index))
            if nbs[0] == nbs[1]:
                raise NotSnc(f"vertex {v} meets {nbs[0]} twice")
            if self.has_edge(*nbs):
                raise NotSnc(f"neighbors {nbs[0]} and {nbs[1]} already meet")
        m = Move(BLOW_DOWN, v, self.order.index(v), nbs)
        self.apply(m)
        return m

    def contract_all(self, protected=frozenset(), keep: int = 0) -> None:
        """Blow down contractible vertices, smallest id first, while more than keep remain.

        Candidates wait in a min-heap of ids and are tried when popped;
        one that blow_down rejects is dropped.  Only a blow-down's former
        neighbours can become contractible, so they are the only ids it
        pushes back: elsewhere it changes no weight and no neighbour list,
        and the one edge it adds can only spoil a vertex whose two
        neighbours it joins, never free one.  For the same reason the heap
        starts with the weight -1 vertices alone: any other vertex reaches
        weight -1 only as some blow-down's anchor, which pushes it then,
        and equal ids pop together, so the blow-downs tried, and their
        order, are those of a heap seeded with every vertex.
        """
        weights = self.weights
        heap = sorted(v for v in self.order if weights[v] == -1)
        while heap and len(self.order) > keep:
            v = heappop(heap)
            if weights.get(v) != -1 or v in protected:
                continue
            try:
                m = self.blow_down(v)
            except (TooBranched, NotSnc):
                continue
            for a in m.anchors:
                heappush(heap, a)

    # ------------------------------------------------ weight-sized runs

    def _admit(self, run: int) -> None:
        predicted = len(self.log) + run
        if predicted > MAX_LOG_MOVES:
            raise MoveLogTooLong(
                f"a run of {_count_text(run)} moves would bring the move log to "
                f"{_count_text(predicted)} moves, past the ceiling of {MAX_LOG_MOVES}")

    def blow_up_ladder(self, fixed: int, moving: int, count: int,
                       fixed_first: bool = True) -> int:
        """count edge blow-ups on fixed, each on its edge to the vertex the one before made.

        The first blows up the edge fixed-moving; the anchors list fixed
        first or last as fixed_first says, in every move.  Returns the last
        vertex made (moving if count is 0).  Draft and log end as count
        blow_up calls leave them: the first goes through apply, which makes
        every check, and the other count - 1, which cannot fail, are one
        _ladder_tail patch.
        """
        if count <= 0:
            return moving
        self._admit(count)
        _kind, base, position, _anchors = self.blow_up(
            (fixed, moving) if fixed_first else (moving, fixed))
        if count == 1:
            return base
        last = base + count - 1
        tail = _ladder_moves(BLOW_UP_EDGE, fixed, base + 1, position + 1, fixed_first, 1)
        self._ladder_tail(fixed, base, position + 1, last, fixed_first,
                          map(_make_move, islice(tail, count - 1)))
        return last

    def _ladder_tail(self, fixed: int, base: int, position: int, last: int,
                     fixed_first: bool, moves: Iterable[Move]) -> None:
        """Write edge blow-ups base + 1, ..., last on fixed, each on its edge to the vertex before.

        base is the vertex an edge blow-up on fixed has just made, so it
        meets fixed and is last in fixed's neighbour list, and every id
        after it is fresh.  The new vertices go into the order from
        position on, and moves, the tail's Move records, into the log.  No
        blow-up of the tail can fail, and draft and log end as the moves
        one at a time leave them.
        """
        order, weights, adj = self.order, self.weights, self.adj
        first = base + 1
        self.log.extend(moves)
        order[position:position] = range(first, last + 1)
        # every vertex of the tail but the last is an anchor once more
        weights[fixed] -= last - base
        weights[base] -= 1
        weights.update(dict.fromkeys(range(first, last), -2))
        weights[last] = -1
        adj[base].remove(fixed)
        adj[base].append(first)
        adj.update(zip(range(first, last),
                       map(list, zip(range(base, last - 1), range(first + 1, last + 1)))))
        adj[last] = [fixed, last - 1] if fixed_first else [last - 1, fixed]
        adj[fixed][-1] = last
        self.next_id = last + 1

    def elementary_run(self, zero: int, side, count: int) -> None:
        """count elementary transformations, each on the 0-vertex the one before made.

        side is "free" or a neighbour id, as in elementary_transformation,
        and stays the same throughout.  Draft and log end as count
        elementary_transformation calls leave them: the first goes through
        it, with every check, and leaves its 0-vertex last in the order
        and in each neighbour's list, with side (if any) first in its own;
        so the other count - 1, which cannot fail, are written at once:
        each blows up at position L = len(order) and blows the last 0-vertex
        down from L - 1.
        """
        if count <= 0:
            return
        self._admit(2 * count)
        z0 = self.elementary_transformation(zero, side)[0].vertex
        if count == 1:
            return
        order, weights, adj = self.order, self.weights, self.adj
        first = z0 + 1
        last = z0 + count - 1
        nbs = adj.pop(z0)
        if side == "free":
            kind, carrier, others = BLOW_UP_FREE, (), tuple(nbs)
        else:
            kind, carrier, others = BLOW_UP_EDGE, (side,), tuple(nbs[1:])
            weights[side] -= count - 1
        for o in others:
            weights[o] += count - 1
        top = len(order)
        self.log.extend([
            m for u in range(first, last + 1)
            for m in (Move(kind, u, top, (u - 1,) + carrier),
                      Move(BLOW_DOWN, u - 1, top - 1, others + (u,)))])
        order[-1] = last
        del weights[z0]
        weights[last] = 0
        adj[last] = nbs
        for x in nbs:
            adj[x][-1] = last
        self.next_id = last + 1

    def elementary_transformation(self, zero_vertex: int, side) -> Tuple[Move, Move]:
        w = self.weight(zero_vertex)
        if w != 0:
            raise NotZeroCurve(f"vertex {zero_vertex} has weight {w}")
        deg = len(self.adj[zero_vertex])
        if deg > 2:
            raise TooBranched(f"vertex {zero_vertex} meets {deg} intersection points")
        if side == "free":
            if deg >= 2:
                raise TooBranched(
                    "free transformation on a vertex with two intersection points "
                    "would leave it too branched to contract"
                )
            m1 = self.blow_up((zero_vertex,))
        else:
            if not self.has_edge(zero_vertex, side):
                raise UnknownEdge(f"no edge {zero_vertex}-{side}")
            m1 = self.blow_up((zero_vertex, side))
        return m1, self.blow_down(zero_vertex)


def apply_move(g: WeightedGraph, m: Move) -> WeightedGraph:
    """The graph after the one move m: a one-move replay (see _Draft.apply)."""
    return MoveLog((m,)).replay(g)


def blow_up(g: WeightedGraph, anchors: Iterable[int] = ()) -> Tuple[WeightedGraph, Move]:
    """Blow up the point where the anchor curves (at most two) meet.

    The fresh (-1)-vertex meets each anchor once and each anchor's weight
    drops by 1; two anchors must meet, and the new vertex replaces one of
    their edges.  No anchor means a point on no tracked curve.
    """
    d = _Draft(g)
    m = d.blow_up(anchors)
    return d.freeze(), m


def blow_down(g: WeightedGraph, v: int) -> Tuple[WeightedGraph, Move]:
    """Contract a (-1)-vertex by the contraction rule (see the module docstring)."""
    d = _Draft(g)
    m = d.blow_down(v)
    return d.freeze(), m


def snc_minimalize(
    g: WeightedGraph, protected: Iterable[int] = ()
) -> Tuple[WeightedGraph, MoveLog]:
    """Blow down unprotected non-branching (-1)-vertices until none remain.

    Deterministic: the smallest eligible vertex id is contracted first.
    Vertices whose contraction would break transversality are skipped (they
    may become eligible later).  Terminates since every step removes a
    vertex.
    """
    prot = frozenset(protected)
    for v in prot:
        g.require_vertex(v)
    d = _Draft(g)
    d.contract_all(prot)
    return d.freeze(), MoveLog(tuple(d.log))


def elementary_transformation(
    g: WeightedGraph, zero_vertex: int, side
) -> Tuple[WeightedGraph, MoveLog]:
    """Blow up on a 0-vertex, then blow the old vertex down.

    side selects the center: a neighbor id blows up that intersection
    point, the string "free" blows up a free point of the 0-vertex.  On an
    interior chain [a, 0, b] with side toward the a-vertex the effect is
    [a+1, 0, b-1]; on a 0-tip with side "free" the neighbor weight rises by
    1 and the new tip is again a 0-vertex.
    """
    d = _Draft(g)
    d.elementary_transformation(zero_vertex, side)
    return d.freeze(), MoveLog(tuple(d.log))
