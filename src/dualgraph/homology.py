"""Topological bookkeeping for open surfaces with a normal-crossing boundary.

Three ingredients: the Euler characteristic of the open part from the
Picard rank and the boundary tree, the torsion relation that rational
acyclicity imposes between boundary and exceptional discriminants, and
the arithmetic obstructions that rule out a rationally acyclic
complement for the smooth high-degree curves produced by the resolution
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import Optional, Tuple

from .errors import NotAForest, NotSmoothCase, ZeroBoundaryDiscriminant
from .graph import Selection, WeightedGraph, classify_shape, induced_graph
from .lattice import discriminant


def euler_open(rho: int, g: WeightedGraph, boundary: Selection = None) -> int:
    """Euler characteristic of the complement of a boundary forest.

    The ambient surface is rational with Picard rank rho, so its Euler
    characteristic is 2 + rho.  Each boundary component is a sphere and
    each boundary edge identifies one point pair, hence the boundary
    contributes 2 * #vertices - #edges.  Cyclic boundaries fall outside
    this count and are rejected.
    """
    b = induced_graph(g, boundary)
    if not classify_shape(b).is_forest:
        raise NotAForest("boundary must be a forest of spheres")
    return (2 + rho) - (2 * len(b) - len(b.edges))


@dataclass(frozen=True)
class AcyclicityCheck:
    """Outcome of the torsion relation |d_boundary| = |d_exceptional| * t^2."""

    d_boundary: int
    d_exceptional: int
    consistent: bool
    torsion_order: Optional[int]


def q_acyclicity_relation(d_boundary: int, d_exceptional: int) -> AcyclicityCheck:
    """Test whether two discriminants can coexist on a rationally acyclic surface.

    When an open surface with quotient singularities has trivial rational
    homology, the boundary discriminant equals the product of the local
    exceptional discriminants times the square of the first homology
    order.  Given the two discriminants this solves for that order, or
    reports the pair as inconsistent.
    """
    if d_boundary == 0:
        raise ZeroBoundaryDiscriminant("boundary discriminant must be nonzero")
    if d_exceptional == 0:
        raise ValueError("exceptional discriminant must be nonzero")
    db, de = abs(d_boundary), abs(d_exceptional)
    if db % de:
        return AcyclicityCheck(d_boundary, d_exceptional, False, None)
    q = db // de
    t = isqrt(q)
    if t * t != q:
        return AcyclicityCheck(d_boundary, d_exceptional, False, None)
    return AcyclicityCheck(d_boundary, d_exceptional, True, t)


@dataclass(frozen=True)
class DivisibilityReport:
    """Arithmetic consequences of contracting the curve with its far chain."""

    d_line_part: int
    d_far_part: int
    d_curve: int
    d_joint: int
    product_route_agrees: bool
    divides: bool
    coprime: bool
    contradiction: bool


def divisibility_check(model) -> DivisibilityReport:
    """Check the contraction arithmetic on a smooth-curve completion.

    The far chain and the curve are disjoint in the boundary, so the
    discriminant of their union must factor; rational acyclicity of the
    contracted surface would further force that factor to divide the
    line-part discriminant.  A completion whose line part is coprime to a
    nontrivial far part can never satisfy this, which is the recorded
    contradiction.  The line-part and far-part discriminants are read from
    the model (d_line, d_far), which computed them when it was built.
    """
    if model.cusp_part:
        raise NotSmoothCase("model resolves a singular curve; contraction arithmetic not applicable")
    g = model.graph
    d_line, d_far = model.d_line, model.d_far
    d_curve = discriminant(g, (model.curve,))
    d_joint = discriminant(g, tuple(model.far_part) + (model.curve,))
    product_ok = d_joint == d_far * d_curve
    if d_joint == 0:
        divides = d_line == 0
    else:
        divides = d_line % d_joint == 0
    coprime = gcd(abs(d_line), abs(d_far)) == 1
    contradiction = coprime and abs(d_far) >= 2 and not divides
    return DivisibilityReport(
        d_line, d_far, d_curve, d_joint, product_ok, divides, coprime, contradiction
    )


POSITIVE_BRANCH = "positive"
ZERO_BRANCH = "zero"
NEGATIVE_BRANCH = "negative"

SINGLE_FIBER_SLOT = "single_fiber_slot"
FIBER_DISCRIMINANT_CONFLICT = "fiber_discriminant_conflict"
QUOTIENT_DIVISIBILITY = "quotient_divisibility"


@dataclass(frozen=True)
class ObstructionReport:
    """Which acyclicity obstruction a smooth-curve completion triggers."""

    branch: str
    curve_self_intersection: int
    d_line_part: int
    d_far_part: int
    line_part_empty: bool
    coprime: bool
    obstructions: Tuple[str, ...]


def smooth_case_obstruction(model) -> ObstructionReport:
    """Classify a smooth-curve completion by the sign of the curve's square.

    Each sign admits one arithmetic obstruction to a rationally acyclic
    complement with a nonempty line part.  A positive square turns the
    curve into a fiber after elementary moves, leaving a fibration with
    at most one singular fiber and a single slot that the two disjoint
    boundary parts cannot share.  A zero square makes the curve a fiber
    directly, forcing the line part to be a fiber of discriminant zero
    even though coprimality with a nontrivial far part keeps it nonzero.
    A negative square lets the curve contract together with the far
    chain, whose joint discriminant would have to divide the line-part
    discriminant it is coprime to.

    An empty line part triggers nothing: that is the configuration the
    obstructions funnel every acyclic candidate into.  The line-part and
    far-part discriminants are read from the model (d_line, d_far).
    """
    if model.cusp_part:
        raise NotSmoothCase("model resolves a singular curve; smooth-case analysis not applicable")
    g = model.graph
    e2 = g.weight(model.curve)
    d_line, d_far = model.d_line, model.d_far
    empty = len(tuple(model.line_part)) == 0
    coprime = gcd(abs(d_line), abs(d_far)) == 1
    hits = []
    if e2 > 0:
        branch = POSITIVE_BRANCH
        if not empty and len(tuple(model.far_part)) > 0:
            hits.append(SINGLE_FIBER_SLOT)
    elif e2 == 0:
        branch = ZERO_BRANCH
        if not empty and d_line != 0 and coprime and abs(d_far) >= 2:
            hits.append(FIBER_DISCRIMINANT_CONFLICT)
    else:
        branch = NEGATIVE_BRANCH
        d_joint = d_far * discriminant(g, (model.curve,))
        if not empty and coprime and abs(d_far) >= 2 and (d_joint == 0 or d_line % d_joint):
            hits.append(QUOTIENT_DIVISIBILITY)
    return ObstructionReport(branch, e2, d_line, d_far, empty, coprime, tuple(hits))
