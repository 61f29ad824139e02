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
from typing import List, Tuple

from .errors import ChainRewriteInvariantViolation, NotAChain, NotStandardizable
from .graph import Selection, WeightedGraph, classify_shape, induced_graph
from .lattice import signature
from .moves import Move, MoveLog, _Draft


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
    """Vertex ids of a chain in path order, starting from the earlier tip."""
    g = induced_graph(g, selection)
    shape = classify_shape(g)
    if not shape.is_chain:
        raise NotAChain("selection is not a connected cycle-free chain")
    # tips come in canonical order, so the first is the earlier one
    order = [shape.tips[0]]
    prev = None
    while len(order) < len(g):
        nxt = [u for u in g.neighbors(order[-1]) if u != prev]
        prev = order[-1]
        order.append(nxt[0])
    return tuple(order)


def chain_type(g: WeightedGraph, selection: Selection = None) -> ChainType:
    order = chain_order(g, selection)
    return ChainType(tuple(-g.weight(v) for v in order))


@dataclass(frozen=True)
class StandardizeResult:
    chain_type: ChainType
    log: MoveLog
    graph: WeightedGraph
    is_standard: bool


def _types(g: WeightedGraph, order) -> List[int]:
    return [-g.weight(v) for v in order]


def _is_terminal(t: List[int]) -> bool:
    if len(t) == 1:
        return t[0] >= 0
    if all(x >= 2 for x in t):
        return True
    if t[0] == 0 and t[1] == 0 and all(x >= 2 for x in t[2:]):
        return True
    if t[-1] == 0 and t[-2] == 0 and all(x >= 2 for x in t[:-2]):
        return True
    return False


class _Session:
    """Mutable rewriting state: a draft of the chain plus the moves applied to it."""

    def __init__(self, g: WeightedGraph, budget: int):
        self.d = _Draft(g)
        self.moves: List[Move] = []
        self.budget = budget

    def _spend(self, n: int) -> None:
        self.budget -= n
        if self.budget < 0:
            raise ChainRewriteInvariantViolation(
                "chain rewriting exceeded its move budget; "
                "this indicates a bug in the case analysis")

    def prim(self, move: Move) -> Move:
        self.moves.append(move)
        self._spend(1)
        return move

    def comp(self, moves: Tuple[Move, ...]) -> Tuple[Move, ...]:
        self.moves.extend(moves)
        self._spend(len(moves))
        return moves


def _contract_type_ones(s: _Session) -> None:
    # blow down every weight -1 vertex, smallest id first, but never the
    # last remaining vertex
    d = s.d
    s.comp(tuple(d.contract_all(lambda v: d.weights[v] == -1 and len(d.adj[v]) <= 2,
                                keep=1)))


def _ramp_single_negative(s: _Session, v: int) -> None:
    # [t] with t <= -1 becomes 2,...,2,0,0 read from the far end
    d = s.d
    s.prim(d.blow_up((v,)))
    while -d.weight(v) < 0:
        last = [u for u in d.neighbors(v) if d.weight(u) == -1][0]
        s.prim(d.blow_up((last, v)))
    s.comp(d.elementary_transformation(v, "free"))


def _run_ets(s: _Session, zero: int, side, count: int) -> None:
    # repeated elementary transformation on a 0-vertex; the 0 migrates to a
    # fresh vertex each time.  side "free" lowers the tip's neighbor by one
    # unit of type, a neighbor id raises that neighbor instead
    for _ in range(count):
        zero = s.comp(s.d.elementary_transformation(zero, side))[0].vertex


def standardize_chain(g: WeightedGraph, selection: Selection = None) -> StandardizeResult:
    """Rewrite a chain into its normal form, returning type, log and graph.

    The moves operate on a standalone copy of the selected chain (ids and
    weights preserved); the log replays against that copy.  Chains whose
    intersection form has two or more non-negative eigenvalues admit no
    normal form and raise NotStandardizable.
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
    s = _Session(start, budget)

    while True:
        _contract_type_ones(s)
        # one graph per round: chain_order reads a frozen graph
        g = s.d.freeze()
        order = list(chain_order(g))
        t = _types(g, order)
        if _is_terminal(t):
            break
        k = len(t)
        if k == 1:
            _ramp_single_negative(s, order[0])
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
            # a 0,0 pair at a tip is terminal, so p == 0 never meets it
            if t[p] == 0 and t[p + 1] <= -1:
                _run_ets(s, order[p], order[p + 1], -t[p + 1])
            elif t[p] <= -1 and t[p + 1] == 0:
                _run_ets(s, order[p + 1], order[p], -t[p])
            elif t[p] == 0 and t[p + 1] == 0:
                _run_ets(s, order[p], order[p + 1], 2)
            else:
                raise ChainRewriteInvariantViolation(f"unreachable chain pattern {t}")
        elif p == 0:
            if t[0] == 0:
                # free transformations push the tip's neighbor to 0
                _run_ets(s, order[0], "free", t[1])
            else:
                # ladder of edge blow-ups raises the negative tip to 0,
                # leaving a single transient 1 to absorb by one free
                # transformation
                left, right = order[0], order[1]
                for _ in range(-t[0]):
                    right = s.prim(s.d.blow_up((left, right))).vertex
                s.comp(s.d.elementary_transformation(left, "free"))
        elif t[p] == 0:
            # walk the zero toward the left tip
            _run_ets(s, order[p], order[p + 1], t[p - 1] - 1)
        else:
            # raise the interior negative to 0 with a ladder on its right
            # edge, then absorb the transient 1
            v, right = order[p], order[p + 1]
            for _ in range(-t[p]):
                right = s.prim(s.d.blow_up((v, right))).vertex
            s.comp(s.d.elementary_transformation(v, right))

    final_type = ChainType(tuple(t))
    return StandardizeResult(
        chain_type=final_type,
        log=MoveLog(tuple(s.moves)),
        graph=g,
        is_standard=final_type.is_standard,
    )
