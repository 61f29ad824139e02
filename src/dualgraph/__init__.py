"""Exact-integer calculus on weighted dual graphs of curve configurations."""

from .chains import ChainType, StandardizeResult, chain_order, chain_type, standardize_chain
from .dsl import (
    GraphDocument,
    dot_graph,
    format_document,
    format_graph,
    parse_document,
    parse_graph,
)
from .errors import (
    BadOrder,
    ChainRewriteInvariantViolation,
    DualGraphError,
    DuplicateId,
    GraphSyntaxError,
    ModelInconsistent,
    NotAChain,
    NotAForest,
    NotCoprime,
    NotMinusOne,
    NotSmoothCase,
    NotSnc,
    NotStandardizable,
    NotZeroCurve,
    PipelineInvariantViolation,
    SelfLoop,
    TooBranched,
    Transversal,
    UnknownEdge,
    UnknownEndpoint,
    UnknownVertex,
    ZeroBoundaryDiscriminant,
)
from .fibration import (
    Fiber,
    FiberReport,
    FibrationModel,
    FujitaAccounting,
    enumerate_fibers,
    fibration_model,
    fujita_accounting,
    initial_fiber,
    validate_fiber,
)
from .graph import (
    ShapeReport,
    SubDivisor,
    WeightedGraph,
    build_graph,
    classify_shape,
    induced_graph,
    intersection_matrix,
    subdivisor,
    with_vertex,
)
from .homology import (
    AcyclicityCheck,
    DivisibilityReport,
    ObstructionReport,
    divisibility_check,
    euler_open,
    q_acyclicity_relation,
    smooth_case_obstruction,
)
from .lattice import (
    LatticeInvariants,
    definiteness,
    discriminant,
    discriminant_by_splitting,
    is_quotient_type,
    signature,
    smith_invariants,
)
from .moves import (
    Move,
    MoveLog,
    apply_move,
    blow_down,
    blow_up_edge,
    blow_up_free,
    elementary_transformation,
    snc_minimalize,
    spawn,
)
from .resolution import (
    BuildHistory,
    CompletionModel,
    CuspPair,
    InfinityResolution,
    LocalResolution,
    TheoremCertificate,
    build_completion,
    coprime_pairs,
    resolve_at_infinity,
    resolve_cusp_local,
    theorem_pipeline,
)

__version__ = "0.1.0"
