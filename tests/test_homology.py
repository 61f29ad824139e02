import random
import re
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

from dualgraph import homology
from dualgraph.errors import NotAForest, NotSmoothCase, ZeroBoundaryDiscriminant
from dualgraph.graph import build_graph
from dualgraph.homology import (
    FIBER_DISCRIMINANT_CONFLICT,
    NEGATIVE_BRANCH,
    POSITIVE_BRANCH,
    QUOTIENT_DIVISIBILITY,
    SINGLE_FIBER_SLOT,
    ZERO_BRANCH,
    divisibility_check,
    euler_open,
    q_acyclicity_relation,
    smooth_case_obstruction,
)
from dualgraph.lattice import discriminant
from dualgraph.resolution import CuspPair, build_completion, coprime_pairs


@pytest.mark.parametrize("bad", [True, False, 7.5, 3.0, Fraction(1, 2), Fraction(3), "3"])
def test_euler_open_takes_an_int_rank(bad):
    with pytest.raises(TypeError, match=re.escape(f"rho must be an int, got {bad!r}")):
        euler_open(bad, build_graph([(0, -1)]))


def random_tree(rng, size):
    spec = [(0, rng.randint(-4, -1))]
    edges = []
    for v in range(1, size):
        spec.append((v, rng.randint(-4, -1)))
        edges.append((rng.randrange(v), v))
    return build_graph(spec, edges)


class TestEulerOpen:
    def test_no_boundary_is_a_plane_like_count(self):
        g = build_graph([(0, -2)])
        assert euler_open(0, g, ()) == 2

    def test_single_component_boundary(self):
        g = build_graph([(0, -2)])
        assert euler_open(0, g, (0,)) == 0
        assert euler_open(5, g, (0,)) == 5

    def test_chain_boundary(self):
        g = build_graph([(i, -2) for i in range(4)], [(0, 1), (1, 2), (2, 3)])
        # 2 + rho - (2*4 - 3)
        assert euler_open(3, g) == 0

    def test_cyclic_boundary_rejected(self):
        g = build_graph([(i, -2) for i in range(3)], [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(NotAForest):
            euler_open(2, g)

    def test_removing_a_vertex_shifts_by_its_link(self):
        rng = random.Random(7)
        for _ in range(50):
            g = random_tree(rng, rng.randint(2, 12))
            v = rng.choice(g.vertices)
            rest = [u for u in g.vertices if u != v]
            deg = sum(g.edge_multiplicity(v, u) for u in rest)
            assert euler_open(0, g, rest) - euler_open(0, g) == 2 - deg


class TestAcyclicityRelation:
    @pytest.mark.parametrize("db,de,order", [
        (1, 1, 1),
        (9, 1, 3),
        (8, 2, 2),
        (-4, -1, 2),
        (12, 3, 2),
    ])
    def test_consistent(self, db, de, order):
        check = q_acyclicity_relation(db, de)
        assert check.consistent
        assert check.torsion_order == order

    @pytest.mark.parametrize("db,de", [(6, 2), (5, 2), (2, 1), (3, 9)])
    def test_inconsistent(self, db, de):
        check = q_acyclicity_relation(db, de)
        assert not check.consistent
        assert check.torsion_order is None

    def test_degenerate_inputs(self):
        with pytest.raises(ZeroBoundaryDiscriminant):
            q_acyclicity_relation(0, 1)
        with pytest.raises(ValueError):
            q_acyclicity_relation(4, 0)


def smooth_model(curve_weight, line_weights=(-2,), far_weights=(-3,)):
    """Minimal stand-in carrying the fields the smooth-case checks read."""
    spec, vid = [], 0
    line_part = []
    for w in line_weights:
        spec.append((vid, w))
        line_part.append(vid)
        vid += 1
    far_part = []
    for w in far_weights:
        spec.append((vid, w))
        far_part.append(vid)
        vid += 1
    curve = vid
    spec.append((curve, curve_weight))
    g = build_graph(spec)
    return SimpleNamespace(
        graph=g,
        curve=curve,
        cusp_part=(),
        line_part=tuple(line_part),
        far_part=tuple(far_part),
        d_line=discriminant(g, line_part),
        d_far=discriminant(g, far_part),
    )


class TestDivisibilityCheck:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 11])
    def test_smooth_completions_contradict(self, n):
        report = divisibility_check(build_completion(CuspPair(n, 1)))
        assert report.d_far_part == n
        assert report.d_curve == -n
        assert report.product_route_agrees
        assert report.coprime
        assert not report.divides
        assert report.contradiction

    def test_singular_model_rejected(self):
        with pytest.raises(NotSmoothCase):
            divisibility_check(build_completion(CuspPair(3, 2)))

    def test_divisible_pair_raises_no_alarm(self):
        # line part d=4, far+curve contract to d_joint=2: 4 is divisible,
        # and the parts are not coprime anyway
        model = smooth_model(-1, line_weights=(-4,), far_weights=(-2,))
        report = divisibility_check(model)
        assert report.d_joint == 2
        assert report.divides
        assert not report.contradiction


class TestSmoothCaseObstruction:
    def test_real_completions_land_in_the_empty_configuration(self):
        for n in (2, 3, 5, 8):
            report = smooth_case_obstruction(build_completion(CuspPair(n, 1)))
            assert report.branch == POSITIVE_BRANCH
            assert report.line_part_empty
            assert report.obstructions == ()

    def test_positive_branch(self):
        report = smooth_case_obstruction(smooth_model(1))
        assert report.branch == POSITIVE_BRANCH
        assert report.obstructions == (SINGLE_FIBER_SLOT,)

    def test_zero_branch(self):
        report = smooth_case_obstruction(smooth_model(0))
        assert report.branch == ZERO_BRANCH
        assert report.obstructions == (FIBER_DISCRIMINANT_CONFLICT,)

    def test_negative_branch(self):
        report = smooth_case_obstruction(smooth_model(-1))
        assert report.branch == NEGATIVE_BRANCH
        assert report.obstructions == (QUOTIENT_DIVISIBILITY,)

    @pytest.mark.parametrize("w", [2, 0, -3])
    def test_empty_line_part_triggers_nothing(self, w):
        report = smooth_case_obstruction(smooth_model(w, line_weights=()))
        assert report.line_part_empty
        assert report.obstructions == ()

    def test_singular_model_rejected(self):
        with pytest.raises(NotSmoothCase):
            smooth_case_obstruction(build_completion(CuspPair(5, 2)))


def test_one_quotient_divisibility_rule_matches_both_old_forms():
    """The shared predicate equals the two inline forms it replaced, on a box.

    divisibility_check stated it through "divides" (d_joint = 0 divides
    only d_line = 0), smooth_case_obstruction with "d_joint = 0 or a
    remainder"; they agree since coprime sides with |d_far| >= 2 force
    d_line != 0.
    """
    box = range(-30, 31)
    for d_line in box:
        for d_far in box:
            coprime = gcd(abs(d_line), abs(d_far)) == 1
            for d_joint in box:
                divides = d_line == 0 if d_joint == 0 else d_line % d_joint == 0
                via_divides = coprime and abs(d_far) >= 2 and not divides
                via_remainder = bool(coprime and abs(d_far) >= 2
                                     and (d_joint == 0 or d_line % d_joint))
                got = homology._quotient_divisibility_fails(d_line, d_far, d_joint)
                assert got == via_divides == via_remainder, (d_line, d_far, d_joint)


def test_reports_read_the_model_discriminants(monkeypatch):
    """Both reports take d_line and d_far from the model, for every n <= 40.

    The values must be the discriminants of the model's parts, and the
    reports compute only what the model does not carry: the curve's
    discriminant, and the joint one of the far part with the curve.
    """
    calls = []

    def counted(g, selection=None):
        calls.append(tuple(selection))
        return discriminant(g, selection)

    monkeypatch.setattr(homology, "discriminant", counted)
    smooth = 0
    for pair in coprime_pairs(1, 40):
        if pair.transversal:
            continue
        model = build_completion(pair)
        if model.cusp_part:
            with pytest.raises(NotSmoothCase):
                divisibility_check(model)
            with pytest.raises(NotSmoothCase):
                smooth_case_obstruction(model)
            continue
        smooth += 1
        g = model.graph
        d_line = discriminant(g, model.line_part)
        d_far = discriminant(g, model.far_part)
        calls.clear()
        div = divisibility_check(model)
        obs = smooth_case_obstruction(model)
        assert (div.d_line_part, div.d_far_part) == (d_line, d_far)
        assert (obs.d_line_part, obs.d_far_part) == (d_line, d_far)
        assert div.d_curve == discriminant(g, (model.curve,))
        assert div.d_joint == discriminant(g, model.far_part + (model.curve,))
        assert div.coprime == obs.coprime == (gcd(abs(d_line), abs(d_far)) == 1)
        curve = (model.curve,)
        assert sorted(calls) == sorted([curve, model.far_part + curve]
                                       + [curve] * (obs.branch == NEGATIVE_BRANCH))
    assert smooth == 39
