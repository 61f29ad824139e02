"""Normal forms of linear chains under the move calculus.

A chain of rational curves can be rewritten by blow-ups, blow-downs and
elementary transformations without changing its discriminant or the
(non-negative part of the) signature of its intersection form.  The three
reachable normal forms are the single 0-vertex, the single (-1)-vertex, and
chains reading 0, 0, then entries of weight <= -2.  Which one applies is
dictated by the inertia of the form:

  one zero eigenvalue, no positive  ->  the 0-vertex
  negative definite                 ->  contract to the minimal chain
  one positive eigenvalue           ->  the 0,0-prefix form

Chains whose form has two or more non-negative eigenvalues reach none of
these; standardize_chain rejects them up front.  Negative definite chains
other than the single (-1) also have no normal form in the list; they are
returned in snc-minimal shape and flagged as non-standard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import ChainRewriteInvariantViolation, NotAChain, NotStandardizable
from .graph import Selection, WeightedGraph, _walk, induced_graph
from .lattice import signature
from .moves import MoveLog, _Draft


@dataclass(frozen=True)
class ChainType:
    """Reading of a chain as negated weights, canonical up to reversal."""

    entries: Tuple[int, ...]

    def __post_init__(self):
        ordered = tuple(self.entries)
        object.__setattr__(self, "entries", min(ordered, tuple(reversed(ordered))))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_standard(self) -> bool:
        e = self.entries
        if e == (0,) or e == (1,):
            return True
        return len(e) >= 2 and e[0] == 0 and e[1] == 0 and all(x >= 2 for x in e[2:])


def chain_order(g: WeightedGraph, selection: Selection = None) -> Tuple[int, ...]:
    """Vertex ids of a chain in path order, starting from the earlier tip: the
    one walk of the index from the first tip, which must reach all V vertices
    of a graph with V - 1 edges and no degree above 2."""
    g = induced_graph(g, selection)
    adj = g._index()
    if len(g.edges) == len(g) - 1 and all(len(ns) <= 2 for ns in adj.values()):
        # fewer edges than vertices, so some vertex has degree at most 1
        order = _walk(adj, (next(v for v in g.vertices if len(adj[v]) <= 1),))[0]
        if len(order) == len(g):
            return tuple(order)
    raise NotAChain("selection is not a connected cycle-free chain")


def chain_type(g: WeightedGraph, selection: Selection = None) -> ChainType:
    order = chain_order(g, selection)
    return ChainType(tuple(-g.weight(v) for v in order))


@dataclass(frozen=True)
class StandardizeResult:
    chain_type: ChainType
    log: MoveLog
    graph: WeightedGraph
    is_standard: bool


def _ramp_single_negative(d: _Draft, v: int) -> None:
    # [t] with t <= -1 becomes 2,...,2,0,0 read from the far end: a free
    # blow-up, then one ladder patch of edge blow-ups between v and the last
    # one, anchored (last, v), until v's weight is 0
    last = d.blow_up((v,)).vertex
    d.blow_up_ladder(v, last, d.weight(v), fixed_first=False)
    d.elementary_transformation(v, "free")


def standardize_chain(g: WeightedGraph, selection: Selection = None) -> StandardizeResult:
    """Rewrite a chain into its normal form, returning type, log and graph.

    The moves patch one draft of the selected chain (ids and weights
    kept), each round reads its path and types off it, and it is frozen
    once, at the end; the log replays against the chain.  Chains whose
    intersection form has two or more non-negative eigenvalues admit no
    normal form and raise NotStandardizable; a rewriting whose ladder or
    run of transformations would bring the log past moves.MAX_LOG_MOVES
    raises MoveLogTooLong before that run writes anything.
    """
    start = induced_graph(g, selection)
    chain_order(start)  # raises NotAChain before any rewriting
    plus, zero_eigs, _minus = signature(start)
    if plus + zero_eigs >= 2:
        raise NotStandardizable(
            f"intersection form has inertia ({plus},{zero_eigs},{_minus}); "
            "no chain normal form is reachable"
        )
    total_weight = sum(abs(start.weight(v)) for v in start.vertices)
    budget = 50 * (len(start) + total_weight + 4) ** 2
    d = _Draft(start)

    while True:
        # blow down every weight -1 vertex, smallest id first, but never
        # the last remaining vertex; the loop leaves only past the budget
        # check, so it counts every move
        d.contract_all(keep=1)
        if len(d.log) > budget:
            raise ChainRewriteInvariantViolation(
                "chain rewriting exceeded its move budget; "
                "this indicates a bug in the case analysis")
        # chain_order's path, from the first tip in canonical order, off the draft
        order = _walk(d.adj, [next(v for v in d.order if len(d.adj[v]) <= 1)])[0]
        t = [-d.weights[v] for v in order]
        reading = ChainType(tuple(t))
        # a standard form, or snc-minimal and negative definite
        if reading.is_standard or min(t) >= 2:
            break
        k = len(t)
        if k == 1:
            _ramp_single_negative(d, order[0])
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
            # (0, neg) and (neg, 0) are mirror images, and 0,0 takes two
            # transformations; a 0,0 pair at a tip is terminal, so p == 0
            # never meets it
            z, o = (p, p + 1) if t[p] == 0 else (p + 1, p)
            if t[z] != 0:
                raise ChainRewriteInvariantViolation(f"unreachable chain pattern {t}")
            d.elementary_run(order[z], order[o], -t[o] or 2)
        elif t[p] == 0 and p == 0:
            # free transformations push the tip's neighbor to 0
            d.elementary_run(order[0], "free", t[1])
        elif t[p] == 0:
            # walk the zero toward the left tip
            d.elementary_run(order[p], order[p + 1], t[p - 1] - 1)
        else:
            # a ladder of edge blow-ups on the right edge, one draft patch,
            # raises the negative to 0, leaving a single transient 1 to absorb
            # by one transformation
            v = order[p]
            right = d.blow_up_ladder(v, order[p + 1], -t[p])
            d.elementary_transformation(v, "free" if p == 0 else right)

    return StandardizeResult(
        chain_type=reading,
        log=MoveLog(tuple(d.log)),
        graph=d.freeze(),
        is_standard=reading.is_standard,
    )
