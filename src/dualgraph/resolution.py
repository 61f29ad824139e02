"""Embedded resolution of the curves x^n = y^m and their completions.

One loop drives everything: subtractive Euclid on a contact pair, where
each step blows up the point the germ currently sits on and the germ's
multiplicity there is the smaller entry of the pair.  Run near the
origin it resolves the cusp; run at the far line it resolves the point
where the curve's closure leaves the affine plane; run on both and
glued along the proper transform it yields the boundary graphs and the
pencil fibration whose invariants the rest of the package measures.
A pipeline run is one draft (moves._Draft): both Euclid runs, the gluing
of the curve's proper transform and the minimalization patch it in
place, and it is frozen once, into the graph the run returns.
Each identity a construction is held to is one CheckResult: a name, the
expected value and the computed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Tuple

from .chains import ChainType, chain_order, standardize_chain
from .errors import (
    BadOrder,
    NotAChain,
    NotCoprime,
    PipelineInvariantViolation,
    Transversal,
)
from .fibration import Fiber, fibration_model, fujita_accounting, validate_fiber
from .graph import WeightedGraph, build_graph, induced_graph
from .homology import euler_open
from .lattice import discriminant
from .moves import Move, MoveLog, _Draft


@dataclass(frozen=True)
class CuspPair:
    """Exponent pair (n, m) of the curve x^n = y^m.

    Requires n >= m >= 1 and coprimality.  Equality is only admitted for
    (1, 1), the straight line; operations that need an actual tangency at
    infinity reject it with Transversal.
    """

    n: int
    m: int

    def __post_init__(self):
        if not isinstance(self.n, int) or not isinstance(self.m, int):
            raise TypeError("exponents must be integers")
        if self.m < 1 or (self.n <= self.m and (self.n, self.m) != (1, 1)):
            raise BadOrder(f"need n > m >= 1, got ({self.n}, {self.m})")
        if gcd(self.n, self.m) != 1:
            raise NotCoprime(f"exponents ({self.n}, {self.m}) share a factor")

    @property
    def transversal(self) -> bool:
        return self.n == 1


def coprime_pairs(lo: int, hi: int) -> List[CuspPair]:
    """All CuspPair(n, m) with lo <= m < n <= hi and gcd(n, m) = 1."""
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got ({lo}, {hi})")
    return [
        CuspPair(n, m)
        for n in range(lo + 1, hi + 1)
        for m in range(lo, n)
        if gcd(n, m) == 1
    ]


def _euclid(d: _Draft, a: int, b: int,
            carriers: Tuple[Optional[int], Optional[int]] = (None, None),
            omega: Optional[Dict[int, int]] = None,
            ) -> Tuple[Tuple[Move, ...], int]:
    """Subtractive Euclid on a coprime pair a >= b >= 1, one blow-up per step.

    Each side of the pair carries the vertex of the curve its branch datum
    sits on (None while that side is not a tracked curve).  A step blows
    up the germ's current position, anchored at the set carriers: the
    corner of two, a free point of one, or a detached point of none.  The
    new curve replaces the consumed side and the pair re-sorts; the run
    ends with one last blow-up at (1, 1), after which the germ is smooth
    and meets only the final curve, moves[-1].vertex, transversally.

    The blow-ups patch the caller's draft d.  Returns the moves this run
    appended to d.log, and the sum of the germ's squared multiplicities
    b*b at the centres, which is a*b: the steps cut an a x b rectangle
    into squares.  When omega is given, a new curve's vanishing order is
    the sum of its anchors' orders.
    """
    if a < b or b < 1 or gcd(a, b) != 1:
        raise ValueError(f"contact pair must be coprime with a >= b >= 1, got ({a}, {b})")
    ca, cb = carriers
    start = len(d.log)
    squares = 0
    while True:
        anchors = tuple(c for c in (ca, cb) if c is not None)
        mv = d.blow_up(anchors)
        if omega is not None:
            omega[mv.vertex] = sum(omega[c] for c in anchors)
        squares += b * b
        if (a, b) == (1, 1):
            return tuple(d.log[start:]), squares
        cb = mv.vertex
        a -= b
        if a < b:
            a, b, ca, cb = b, a, cb, ca


def _created(moves: Tuple[Move, ...]) -> Tuple[int, ...]:
    return tuple(mv.vertex for mv in moves)


@dataclass(frozen=True)
class LocalResolution:
    """Minimal embedded resolution of the germ at the origin.

    cusp_part lists the exceptional curves in creation order; curve is
    the germ's proper transform, attached to the last of them (or
    detached when the germ was already smooth).  The log replays the
    exceptional part from the empty graph; the curve itself is glued on
    afterwards, outside the blow-up calculus.
    """

    graph: WeightedGraph
    cusp_part: Tuple[int, ...]
    curve: int
    log: MoveLog


def resolve_cusp_local(pair: CuspPair) -> LocalResolution:
    d = _Draft(build_graph([]))
    moves = _euclid(d, pair.n, pair.m)[0] if pair.m > 1 else ()
    e = d.glue(0, _created(moves[-1:]))
    return LocalResolution(d.freeze(), _created(moves), e, MoveLog(moves))


@dataclass(frozen=True)
class InfinityResolution:
    """Resolution of the point where the curve's closure meets the far line.

    The output is always a chain: the far line sits at one tip, the
    bridge is the unique curve the germ's transform will meet, and the
    chain minus the bridge splits into the side holding the line
    (line_part) and the opposite side (far_part).
    """

    graph: WeightedGraph
    line: int
    line_part: Tuple[int, ...]
    bridge: int
    far_part: Tuple[int, ...]
    log: MoveLog


def resolve_at_infinity(pair: CuspPair) -> InfinityResolution:
    if pair.transversal:
        raise Transversal("a degree-one curve crosses the far line transversally")
    d = _Draft(build_graph([(0, 1)]))
    moves, _ = _euclid(d, pair.n, pair.n - pair.m, (0, None))
    g = d.freeze()
    bridge = moves[-1].vertex
    line_part, far_part = _split_at(chain_order(g), bridge, 0)
    return InfinityResolution(g, 0, line_part, bridge, far_part, MoveLog(moves))


def _split_at(order, pivot, line):
    """Split a chain order at the pivot, line-holding side first."""
    i = order.index(pivot)
    left, right = order[:i], order[i + 1:]
    return (left, right) if line in left else (right, left)


@dataclass(frozen=True)
class AssemblyStep:
    """Gluing record for a vertex added outside the blow-up calculus."""

    vertex: int
    weight: int
    attach_to: Tuple[int, ...]


@dataclass(frozen=True)
class BuildHistory:
    """Everything needed to rebuild a constructed graph bit for bit."""

    seed: WeightedGraph
    resolution: MoveLog
    assembly: AssemblyStep
    minimalization: MoveLog

    def rebuild(self) -> WeightedGraph:
        d = _Draft(self.seed)
        for m in self.resolution:
            d.apply(m)
        if d.glue(self.assembly.weight, self.assembly.attach_to) != self.assembly.vertex:
            raise PipelineInvariantViolation("assembly id drifted during replay")
        for m in self.minimalization:
            d.apply(m)
        return d.freeze()


def _glue_and_minimalize(d: _Draft, seed: WeightedGraph, weight: int, attach: Tuple[int, ...],
                         protected) -> Tuple[WeightedGraph, int, BuildHistory]:
    """Glue the curve onto d, contract to a minimal model and freeze once.

    d holds seed patched by the resolution moves alone.  The curve's
    proper transform is glued on with the given weight, meeting each
    vertex of attach once; contraction spares it and every protected id.
    Returns the graph, the curve's id and the history that rebuilds it.
    """
    resolution = MoveLog(tuple(d.log))
    curve = d.glue(weight, attach)
    d.contract_all(frozenset(protected) | {curve})
    psi = MoveLog(tuple(d.log[len(resolution):]))
    history = BuildHistory(seed, resolution, AssemblyStep(curve, weight, attach), psi)
    return d.freeze(), curve, history


@dataclass(frozen=True)
class CheckResult:
    """One named identity: the value it must take and the value computed."""

    name: str
    expected: object
    computed: object

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


@dataclass(frozen=True)
class CompletionModel:
    """Minimal completion of the affine complement of the curve.

    The graph consists of boundary curves only: the exceptional locus
    over the origin (cusp_part, empty for a smooth curve), the curve's
    proper transform, and the chain at infinity split by the bridge into
    line_part and far_part.  line is None when contracting the line side
    consumed the far line itself.  euler_open_part is the Euler
    characteristic of the complement of the boundary with the bridge put
    back in; it equals minus the number of bridge/line_part contacts.
    d_far, d_line and d_chain are the discriminants of far_part, line_part
    and the whole chain at infinity; checks records every identity the
    model was held to.
    """

    n: int
    m: int
    graph: WeightedGraph
    curve: int
    cusp_part: Tuple[int, ...]
    line: Optional[int]
    line_part: Tuple[int, ...]
    bridge: int
    far_part: Tuple[int, ...]
    rho: int
    euler_open_part: int
    history: BuildHistory
    d_far: int
    d_line: int
    d_chain: int
    checks: Tuple[CheckResult, ...]


def build_completion(pair: CuspPair) -> CompletionModel:
    """Resolve origin and infinity on one surface and glue the curve in.

    Raises PipelineInvariantViolation when the assembled boundary fails
    any of its structural identities; for valid pairs that signals a bug
    here, not bad input.
    """
    if pair.transversal:
        raise Transversal("a degree-one curve crosses the far line transversally")
    n, m = pair.n, pair.m
    seed = build_graph([(0, 1)])
    d = _Draft(seed)
    origin_moves, origin_squares = _euclid(d, n, m) if m >= 2 else ((), 0)
    inf_moves, inf_squares = _euclid(d, n, n - m, (0, None))
    bridge = inf_moves[-1].vertex
    line_side, far_part = _split_at(
        chain_order(d.freeze(), (0,) + _created(inf_moves)), bridge, 0)

    protected = [v for v in d.order if v not in line_side]
    g, curve, history = _glue_and_minimalize(
        d, seed, n * n - origin_squares - inf_squares,
        _created(origin_moves[-1:]) + (bridge,), protected)
    line_part = tuple(v for v in line_side if g.has_vertex(v))
    line = 0 if g.has_vertex(0) else None

    rho = 1 + len(history.resolution) - len(history.minimalization)
    chi = euler_open(rho, g, [v for v in g.vertices if v != bridge])
    cusp_part = _created(origin_moves)
    d_far = discriminant(g, far_part)
    d_line = discriminant(g, line_part)
    d_chain = discriminant(g, line_part + (bridge,) + far_part)
    bridge_line_edges = sum(g.edge_multiplicity(bridge, v) for v in line_part)
    checks = [
        CheckResult("boundary_discriminant", -1, d_chain),
        CheckResult("far_part_floor", True, d_far >= 2),
        CheckResult("sides_coprime", 1, gcd(abs(d_line), abs(d_far))),
        CheckResult("far_part_softer_than_minus_two", [],
                    [v for v in far_part if g.weight(v) > -2]),
        CheckResult("euler_vs_bridge_contacts", -bridge_line_edges, chi),
        CheckResult("curve_meets_bridge", True, g.has_edge(curve, bridge)),
    ]
    if cusp_part:
        tip = cusp_part[-1]
        checks += [
            CheckResult("cusp_part_minus_ones", [tip],
                        [v for v in cusp_part if g.weight(v) == -1]),
            CheckResult("curve_meets_cusp_part", True, g.has_edge(curve, tip)),
        ]
    checks.append(CheckResult("history_rebuilds", True, history.rebuild() == g))
    failed = [c for c in checks if not c.passed]
    if failed:
        raise PipelineInvariantViolation("; ".join(
            f"{c.name}: expected {c.expected}, computed {c.computed}" for c in failed))
    return CompletionModel(
        n, m, g, curve, cusp_part, line, line_part, bridge, far_part, rho, chi, history,
        d_far, d_line, d_chain, tuple(checks),
    )


@dataclass(frozen=True)
class FiberRole:
    """One singular member of the resolved pencil, split by its free vertex.

    near_part collects the curves over the origin, far_part those over
    the line at infinity; the free vertex is the unique member component
    left out of the boundary.  Multiplicities come from the vanishing
    order of the pencil along each component.
    """

    vertices: Tuple[int, ...]
    near_part: Tuple[int, ...]
    free_vertex: int
    far_part: Tuple[int, ...]
    multiplicity: Dict[int, int]


@dataclass(frozen=True)
class TheoremCertificate:
    """Fibration data for the pencil spanned by x^n and y^m, with its checks.

    fiber_one is the member containing the vertical axis (discriminant
    of its near part equals n), fiber_two the one containing the
    horizontal axis (near-part discriminant m).  checks records every
    identity the construction was held to, with expected and computed
    values; the certificate is valid iff passed.
    """

    n: int
    m: int
    graph: WeightedGraph
    curve: int
    sections: Tuple[int, int]
    line: Optional[int]
    fiber_one: FiberRole
    fiber_two: FiberRole
    boundary: Tuple[int, ...]
    rho: int
    d_near_one: int
    d_near_two: int
    checks: Tuple[CheckResult, ...]
    history: BuildHistory

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


AXIS_X = 0
AXIS_Y = 1
FAR_LINE = 2


def theorem_pipeline(pair: CuspPair) -> TheoremCertificate:
    """Resolve the pencil of x^n and y^m and certify its two singular members.

    Seeds the plane as the two axes plus the far line, resolves the base
    point at the origin and the tangency at infinity, glues in the
    generic member, prunes off-boundary clutter, and then measures the
    result: fiber shapes, vanishing orders, near/far discriminants, the
    counting identity, and the bit-for-bit rebuild of the whole history.
    A failed identity is recorded in the certificate's checks, not raised.
    """
    if pair.transversal:
        raise Transversal("a degree-one curve crosses the far line transversally")
    n, m = pair.n, pair.m
    seed = build_graph([(AXIS_X, 1), (AXIS_Y, 1), (FAR_LINE, 1)],
                       [(AXIS_X, AXIS_Y), (AXIS_X, FAR_LINE), (AXIS_Y, FAR_LINE)])
    omega = {AXIS_X: -m, AXIS_Y: n, FAR_LINE: m - n}
    d = _Draft(seed)
    origin_moves, origin_squares = _euclid(d, n, m, (AXIS_X, AXIS_Y), omega)
    inf_moves, inf_squares = _euclid(d, n, n - m, (FAR_LINE, AXIS_Y), omega)
    sections = (origin_moves[-1].vertex, inf_moves[-1].vertex)

    g, curve, history = _glue_and_minimalize(
        d, seed, n * n - origin_squares - inf_squares, sections,
        (AXIS_X, AXIS_Y, *sections))
    omega[curve] = 0
    rho = 1 + len(history.resolution) - len(history.minimalization)

    checks: List[CheckResult] = []

    def check(name, expected, computed):
        checks.append(CheckResult(name, expected, computed))

    check("curve_is_zero", 0, g.weight(curve))
    for j, s in enumerate(sections):
        check(f"section_{j}_level", 0, omega[s])

    one_ids = [v for v in g.vertices if omega.get(v, 0) > 0]
    two_ids = [v for v in g.vertices if omega.get(v, 0) < 0]
    level_zero = [v for v in g.vertices if omega.get(v, 0) == 0]
    check("level_zero_vertices", sorted((curve,) + sections), sorted(level_zero))
    check("axes_in_members", (True, True), (AXIS_Y in one_ids, AXIS_X in two_ids))

    origin_set = set(_created(origin_moves))
    far_set = {FAR_LINE, *_created(inf_moves)}
    fiber_one, member_one = _fiber_role(
        g, one_ids, AXIS_Y, origin_set, far_set, omega, check, "one")
    fiber_two, member_two = _fiber_role(
        g, two_ids, AXIS_X, origin_set, far_set, omega, check, "two")

    d_near_one = discriminant(g, fiber_one.near_part)
    d_near_two = discriminant(g, fiber_two.near_part)
    check("near_discriminant_one", n, d_near_one)
    check("near_discriminant_two", m, d_near_two)
    check("far_discriminant_one", n, discriminant(g, fiber_one.far_part))
    check("far_discriminant_two", m, discriminant(g, fiber_two.far_part))
    check("free_multiplicity_one", d_near_one, fiber_one.multiplicity[AXIS_Y])
    check("free_multiplicity_two", d_near_two, fiber_two.multiplicity[AXIS_X])

    boundary = tuple(v for v in g.vertices if v not in (AXIS_X, AXIS_Y))
    _accounting_checks(g, curve, sections, (fiber_one, fiber_two), (member_one, member_two),
                       rho, check)

    if m == 1:
        check("second_member_is_bare_zero_curve", ((AXIS_X,), 0),
              (fiber_two.vertices, g.weight(AXIS_X)))
        survivors = [v for v in g.vertices if v in far_set]
        reduced = standardize_chain(g, survivors)
        check("far_boundary_reduces_to_plane_form", ChainType((0, 0)), reduced.chain_type)

    check("history_rebuilds", True, history.rebuild() == g)

    return TheoremCertificate(
        n, m, g, curve, sections, FAR_LINE if g.has_vertex(FAR_LINE) else None,
        fiber_one, fiber_two, boundary, rho, d_near_one, d_near_two,
        tuple(checks), history,
    )


def _fiber_role(g, ids, axis, origin_set, far_set, omega, check,
                tag) -> Tuple[FiberRole, Fiber]:
    member = induced_graph(g, ids)
    try:
        vertices, is_chain = chain_order(member), True
    except NotAChain:
        vertices, is_chain = tuple(sorted(ids)), False
    check(f"member_{tag}_is_chain", True, is_chain)
    near = tuple(v for v in vertices if v in origin_set)
    far = tuple(v for v in vertices if v in far_set)
    free = tuple(v for v in vertices if v == axis)
    check(f"member_{tag}_splits", len(vertices), len(near) + len(far) + len(free))
    check(f"member_{tag}_holds_axis", (axis,), free)
    mult = {v: abs(omega[v]) for v in vertices}
    role = FiberRole(vertices, near, axis, far, mult)
    if axis in vertices:
        i = vertices.index(axis)
        sides = {frozenset(vertices[:i]), frozenset(vertices[i + 1:])}
        check(f"member_{tag}_sides_are_near_far",
              {frozenset(near), frozenset(far)}, sides)
    fiber = Fiber(member, mult, MoveLog())
    check(f"member_{tag}_fiber_report", (), validate_fiber(fiber).violations)
    return role, fiber


def _accounting_checks(g, curve, sections, roles, members, rho, check) -> None:
    """Assemble the abstract fibration model and run the counting identity."""
    fibers = [*members, Fiber(induced_graph(g, (curve,)), {curve: 1}, MoveLog())]
    section_maps = []
    for j, s in enumerate(sections):
        hits: Dict[int, int] = {}
        ok = True
        for i, r in enumerate((roles[0].vertices, roles[1].vertices, (curve,))):
            touched = [v for v in g.neighbors(s) if v in r]
            if len(touched) != 1:
                ok = False
                break
            hits[i] = touched[0]
        check(f"section_{j}_meets_every_member_once", True, ok)
        section_maps.append(hits)
    if any(len(sm) != 3 for sm in section_maps):
        return
    boundary = [("section", 0), ("section", 1), ("fiber", 2, curve)]
    for i, r in enumerate(roles):
        boundary.extend(("fiber", i, v) for v in r.vertices if v != r.free_vertex)
    try:
        model = fibration_model(fibers, section_maps, boundary)
        acc = fujita_accounting(model)
    except Exception as exc:  # noqa: BLE001 - surfaced as a failed check
        check("counting_identity", "holds", f"{type(exc).__name__}: {exc}")
        return
    check("counting_identity", acc.left, acc.right)
    check("horizontal_count", 2, acc.sections_in_boundary)
    check("full_members_in_boundary", 1, acc.fibers_in_boundary)
    check("outside_surplus", 0, acc.horizontal_like_sum)
    check("rank_matches_member_sizes", rho, acc.rho)
