"""Error types raised by the graph calculus.

Every exception derives from DualGraphError so callers can catch the whole
family at once.  Names state the violated precondition, not the operation
that noticed it.
"""

from __future__ import annotations


class DualGraphError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateId(DualGraphError):
    """A vertex id was declared twice."""


class UnknownEndpoint(DualGraphError):
    """An edge references a vertex id that was never declared."""


class SelfLoop(DualGraphError):
    """An edge joins a vertex to itself."""


class UnknownVertex(DualGraphError):
    """An operation referenced a vertex id not present in the graph."""


class UnknownEdge(DualGraphError):
    """An operation referenced an edge not present in the graph."""


class NotAForest(DualGraphError):
    """The selected subgraph contains a cycle (multi-edges count)."""


class NotAChain(DualGraphError):
    """The graph is not a single chain of vertices."""


class NotMinusOne(DualGraphError):
    """Blow-down requires the vertex to have weight -1."""


class TooBranched(DualGraphError):
    """The vertex has too many neighbors for the requested move."""


class NotSnc(DualGraphError):
    """Contracting here would merge two curves that already meet."""


class NotZeroCurve(DualGraphError):
    """Elementary transformation requires a weight-0 vertex."""


class NotStandardizable(DualGraphError):
    """No standard chain form exists for this intersection lattice."""


class NotCoprime(DualGraphError):
    """Exponent pair must be coprime."""


class BadOrder(DualGraphError):
    """Exponent pair must satisfy n > m >= 1."""


class Transversal(DualGraphError):
    """Degenerate line case: the curve meets the line at infinity transversally."""


class ModelInconsistent(DualGraphError):
    """A fibration or completion model violates one of its structural invariants."""


class NotSmoothCase(DualGraphError):
    """The check applies only to completions of a smooth curve (empty local part)."""


class ZeroBoundaryDiscriminant(DualGraphError):
    """Boundary discriminant is zero; the homology order relation is undefined."""


class PipelineInvariantViolation(DualGraphError):
    """An internal certification step of the resolution pipeline failed."""


class ChainRewriteInvariantViolation(DualGraphError):
    """Chain rewriting reached a pattern its case analysis rules out, or ran
    past its move budget."""


class MoveLogTooLong(DualGraphError):
    """A run of moves whose count is a weight would grow its log past moves.MAX_LOG_MOVES."""


class ResultTooLong(DualGraphError):
    """A result could have more digits than Python prints (sys.get_int_max_str_digits())."""


class GraphSyntaxError(DualGraphError):
    """Malformed line in the textual graph format."""

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")
