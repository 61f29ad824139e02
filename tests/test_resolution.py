from dataclasses import replace
from math import gcd

import pytest

from dualgraph import resolution
from dualgraph.chains import chain_order
from dualgraph.errors import (
    BadOrder,
    ModelInconsistent,
    NotCoprime,
    PipelineInvariantViolation,
    Transversal,
)
from dualgraph.graph import build_graph
from dualgraph.lattice import definiteness, discriminant
from dualgraph.moves import _Draft
from dualgraph.resolution import (
    CheckResult,
    CuspPair,
    build_completion,
    coprime_pairs,
    resolve_at_infinity,
    resolve_cusp_local,
    theorem_pipeline,
)


def weights_along(g, ids):
    return tuple(g.weight(v) for v in chain_order(g, ids))


class TestCuspPair:
    def test_valid(self):
        p = CuspPair(5, 2)
        assert (p.n, p.m) == (5, 2)
        assert not p.transversal

    def test_line_is_allowed_but_flagged(self):
        assert CuspPair(1, 1).transversal

    @pytest.mark.parametrize("n,m", [(2, 3), (2, 2), (3, 0), (1, 2), (4, -1)])
    def test_bad_order(self, n, m):
        with pytest.raises((BadOrder, NotCoprime)):
            CuspPair(n, m)

    @pytest.mark.parametrize("n,m", [(6, 2), (9, 3), (10, 4)])
    def test_not_coprime(self, n, m):
        with pytest.raises(NotCoprime):
            CuspPair(n, m)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            CuspPair(3.0, 2)

    def test_coprime_pairs_counts(self):
        assert len(coprime_pairs(2, 30)) == 248
        assert len(coprime_pairs(1, 12)) == 45
        assert all(gcd(p.n, p.m) == 1 and p.n > p.m for p in coprime_pairs(2, 9))
        with pytest.raises(ValueError):
            coprime_pairs(0, 5)


class TestLocalResolution:
    def test_smallest_cusp(self):
        loc = resolve_cusp_local(CuspPair(3, 2))
        g = loc.graph
        assert weights_along(g, loc.cusp_part) == (-3, -1, -2)
        assert discriminant(g, loc.cusp_part) == 1
        # the curve hangs off the unique (-1)-curve, which meets both others
        middle = [v for v in loc.cusp_part if g.weight(v) == -1]
        assert len(middle) == 1
        assert g.has_edge(loc.curve, middle[0])
        assert g.degree(middle[0]) == 3

    @pytest.mark.parametrize("n,m,shape", [
        (5, 2, (-2, -3, -1, -2)),
        (7, 3, (-2, -4, -1, -2, -2)),
    ])
    def test_known_chains(self, n, m, shape):
        loc = resolve_cusp_local(CuspPair(n, m))
        chain = weights_along(loc.graph, loc.cusp_part)
        assert chain == shape or chain == shape[::-1]
        assert discriminant(loc.graph, loc.cusp_part) == 1

    def test_smooth_curve_has_no_exceptional_part(self):
        loc = resolve_cusp_local(CuspPair(4, 1))
        assert loc.cusp_part == ()
        assert tuple(loc.graph.vertices) == (loc.curve,)
        assert len(loc.log.moves) == 0

    def test_log_replays_exceptional_part(self):
        loc = resolve_cusp_local(CuspPair(5, 3))
        d = _Draft(build_graph([]))
        for mv in loc.log:
            d.apply(mv)
        assert d.glue(0, (loc.cusp_part[-1],)) == loc.curve
        assert d.freeze() == loc.graph

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 13)
                                     for m in range(2, n) if gcd(n, m) == 1])
    def test_unit_discriminant_and_negative_definite(self, n, m):
        loc = resolve_cusp_local(CuspPair(n, m))
        g = loc.graph
        assert discriminant(g, loc.cusp_part) == 1
        assert definiteness(g, loc.cusp_part) == "negative-definite"
        ones = [v for v in loc.cusp_part if g.weight(v) == -1]
        assert ones == [loc.cusp_part[-1]]
        assert g.has_edge(loc.curve, ones[0])


class TestInfinityResolution:
    def test_smallest_cusp(self):
        inf = resolve_at_infinity(CuspPair(3, 2))
        g = inf.graph
        assert weights_along(g, g.vertices) in ((-2, -1, -2, -2), (-2, -2, -1, -2))
        assert g.weight(inf.line) == -2
        assert g.degree(inf.line) == 1
        assert inf.line_part == (inf.line,)
        assert discriminant(g) == -1
        assert discriminant(g, inf.far_part) == 3

    def test_line_case_rejected(self):
        with pytest.raises(Transversal):
            resolve_at_infinity(CuspPair(1, 1))

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 13)
                                     for m in range(1, n) if gcd(n, m) == 1])
    def test_chain_shape_and_discriminants(self, n, m):
        inf = resolve_at_infinity(CuspPair(n, m))
        g = inf.graph
        # one chain, line at a tip; the far side is stiff and the bridge is
        # its unique contact with a (-1).  The line side may still carry
        # (-1)s of its own: pruning is the completion's job, not ours.
        order = chain_order(g)
        assert order[0] == inf.line or order[-1] == inf.line
        assert g.weight(inf.bridge) == -1
        assert all(g.weight(v) <= -2 for v in inf.far_part)
        assert discriminant(g) == -1
        assert discriminant(g, inf.far_part) == n
        assert discriminant(g, inf.line_part) == m


class TestCompletion:
    @pytest.mark.parametrize("n,m,rho,chi,line_kept,cusp_len,curve_sq", [
        (3, 2, 7, -1, True, 3, 0),
        (5, 2, 8, -1, False, 4, 0),
        (7, 3, 10, -1, False, 5, 0),
        (2, 1, 2, 0, False, 0, 2),
        (3, 1, 2, 0, False, 0, 3),
    ])
    def test_fixture_models(self, n, m, rho, chi, line_kept, cusp_len, curve_sq):
        c = build_completion(CuspPair(n, m))
        assert c.rho == rho
        assert c.euler_open_part == chi
        assert (c.line is not None) == line_kept
        assert len(c.cusp_part) == cusp_len
        assert c.graph.weight(c.curve) == curve_sq

    def test_curve_square_zero_iff_singular(self):
        for p in coprime_pairs(1, 10):
            c = build_completion(p)
            expected = 0 if p.m >= 2 else p.n
            assert c.graph.weight(c.curve) == expected

    def test_boundary_discriminants(self):
        for p in coprime_pairs(1, 12):
            c = build_completion(p)
            g = c.graph
            chain = c.line_part + (c.bridge,) + c.far_part
            assert discriminant(g, chain) == -1
            d_far = discriminant(g, c.far_part)
            d_line = discriminant(g, c.line_part)
            assert d_far >= 2
            assert gcd(abs(d_line), d_far) == 1
            if p.m >= 2:
                assert discriminant(g, c.cusp_part) == 1

    def test_model_keeps_its_discriminants_and_checks(self):
        for p in coprime_pairs(1, 12):
            c = build_completion(p)
            g = c.graph
            assert c.d_chain == discriminant(g, c.line_part + (c.bridge,) + c.far_part) == -1
            assert c.d_far == discriminant(g, c.far_part)
            assert c.d_line == discriminant(g, c.line_part)
            names = [chk.name for chk in c.checks]
            assert names[:3] == ["boundary_discriminant", "far_part_floor", "sides_coprime"]
            assert names[-1] == "history_rebuilds"
            assert len(names) == (9 if c.cusp_part else 7)
            assert all(chk.passed for chk in c.checks)

    def test_pruning_acts_when_line_softens(self):
        c = build_completion(CuspPair(5, 2))
        assert c.line is None
        assert len(c.history.minimalization.moves) == 1
        assert len(c.line_part) == 1
        assert c.graph.weight(c.line_part[0]) == -2

    def test_pruning_idle_when_line_stays_stiff(self):
        c = build_completion(CuspPair(3, 2))
        assert len(c.history.minimalization.moves) == 0
        assert c.line == 0

    def test_history_rebuilds_bit_for_bit(self):
        for p in [CuspPair(3, 2), CuspPair(5, 3), CuspPair(4, 1)]:
            c = build_completion(p)
            assert c.history.rebuild() == c.graph

    def test_euler_matches_bridge_contacts(self):
        for p in coprime_pairs(1, 10):
            c = build_completion(p)
            contacts = sum(c.graph.edge_multiplicity(c.bridge, v) for v in c.line_part)
            assert c.euler_open_part == -contacts

    def test_line_case_rejected(self):
        with pytest.raises(Transversal):
            build_completion(CuspPair(1, 1))


class TestTheoremPipeline:
    def test_smallest_cusp_fibers(self):
        cert = theorem_pipeline(CuspPair(3, 2))
        g = cert.graph
        f1, f2 = cert.fiber_one, cert.fiber_two
        assert weights_along(g, f1.vertices) in ((-3, -1, -2, -2), (-2, -2, -1, -3))
        assert weights_along(g, f2.vertices) in ((-2, -1, -2),)
        assert sorted(f1.multiplicity.values()) == [1, 1, 2, 3]
        assert sorted(f2.multiplicity.values()) == [1, 1, 2]
        assert (cert.d_near_one, cert.d_near_two) == (3, 2)
        assert cert.rho == 7
        assert g.weight(cert.curve) == 0
        assert all(c.passed for c in cert.checks)

    @pytest.mark.parametrize("n,m,rho,f2_size", [
        (2, 1, 4, 1),
        (3, 1, 5, 1),
        (5, 2, 8, 3),
    ])
    def test_fixture_shapes(self, n, m, rho, f2_size):
        cert = theorem_pipeline(CuspPair(n, m))
        assert cert.rho == rho
        assert len(cert.fiber_two.vertices) == f2_size
        assert (cert.d_near_one, cert.d_near_two) == (n, m)

    def test_smooth_member_for_unit_m(self):
        cert = theorem_pipeline(CuspPair(3, 1))
        g = cert.graph
        # smooth case: the curve and the second member are parallel
        # 0-curves, and the far boundary reduces to the plane form
        assert g.weight(cert.curve) == 0
        (lone,) = cert.fiber_two.vertices
        assert g.weight(lone) == 0
        names = [c.name for c in cert.checks]
        assert "far_boundary_reduces_to_plane_form" in names
        assert "second_member_is_bare_zero_curve" in names

    def test_free_vertex_multiplicities(self):
        for p in coprime_pairs(1, 9):
            cert = theorem_pipeline(p)
            f1, f2 = cert.fiber_one, cert.fiber_two
            assert f1.multiplicity[f1.free_vertex] == p.n
            assert f2.multiplicity[f2.free_vertex] == p.m
            assert discriminant(cert.graph, f1.far_part) == p.n
            assert discriminant(cert.graph, f2.far_part) == p.m

    def test_certificates_over_range(self):
        for p in coprime_pairs(1, 14):
            cert = theorem_pipeline(p)
            assert all(c.passed for c in cert.checks)
            assert (cert.d_near_one, cert.d_near_two) == (p.n, p.m)

    def test_history_rebuilds(self):
        cert = theorem_pipeline(CuspPair(4, 3))
        assert cert.history.rebuild() == cert.graph

    def test_rebuild_rejects_a_drifted_assembly_id(self):
        history = theorem_pipeline(CuspPair(4, 3)).history
        off = replace(history.assembly, vertex=history.assembly.vertex + 1)
        with pytest.raises(PipelineInvariantViolation, match="assembly id drifted during replay"):
            replace(history, assembly=off).rebuild()

    def test_sections_are_exactly_the_level_zero_vertices(self):
        cert = theorem_pipeline(CuspPair(5, 3))
        g = cert.graph
        covered = set(cert.fiber_one.vertices) | set(cert.fiber_two.vertices)
        covered |= {cert.curve, *cert.sections}
        assert covered == set(g.vertices)

    def test_line_case_rejected(self):
        with pytest.raises(Transversal):
            theorem_pipeline(CuspPair(1, 1))


class TestEuclid:
    def test_squares_tile_the_rectangle(self):
        # subtractive Euclid cuts an n x m rectangle into b x b squares
        for p in coprime_pairs(1, 25):
            d = _Draft(build_graph([]))
            moves, squares = resolution._euclid(d, p.n, p.m)
            assert squares == p.n * p.m
            assert tuple(mv.vertex for mv in moves) == tuple(d.freeze().vertices)

    def test_carriers_anchor_the_first_step_and_sum_omega(self):
        d = _Draft(build_graph([(0, 1), (1, 1)], [(0, 1)]))
        omega = {0: 2, 1: 3}
        moves, squares = resolution._euclid(d, 2, 1, (0, 1), omega)
        assert moves[0].anchors == (0, 1)
        assert omega[moves[0].vertex] == 5
        assert squares == 2
        assert d.freeze().has_edge(moves[-1].vertex, moves[0].vertex)

    def test_a_second_run_returns_only_its_own_moves(self):
        d = _Draft(build_graph([(0, 1)]))
        first, _ = resolution._euclid(d, 5, 3)
        second, squares = resolution._euclid(d, 5, 2, (0, None))
        assert tuple(d.log) == first + second
        assert second[0].anchors == (0,) and squares == 10

    @pytest.mark.parametrize("a,b", [(2, 3), (3, 0), (4, 2)])
    def test_rejects_unsorted_or_shared_factor_pair(self, a, b):
        # a shared factor would never reach (1, 1)
        with pytest.raises(ValueError):
            resolution._euclid(_Draft(build_graph([])), a, b)


class TestFailedChecks:
    def test_check_result_passes_iff_values_agree(self):
        assert CheckResult("same", (1, 2), (1, 2)).passed
        assert not CheckResult("differ", 3, 4).passed

    def test_wrong_discriminant_fails_the_certificate(self, monkeypatch):
        real = resolution.discriminant
        monkeypatch.setattr(resolution, "discriminant", lambda g, sel=None: real(g, sel) + 1)
        cert = theorem_pipeline(CuspPair(3, 2))
        assert not cert.passed
        failed = {c.name: c for c in cert.checks if not c.passed}
        assert (failed["near_discriminant_one"].expected,
                failed["near_discriminant_one"].computed) == (3, 4)
        assert "history_rebuilds" not in failed

    def test_accounting_exception_is_a_failed_check(self, monkeypatch):
        def broken(model):
            raise ModelInconsistent("sections disagree")
        monkeypatch.setattr(resolution, "fujita_accounting", broken)
        cert = theorem_pipeline(CuspPair(5, 3))
        (failed,) = [c for c in cert.checks if not c.passed]
        assert failed.name == "counting_identity"
        assert failed.computed == "ModelInconsistent: sections disagree"

    def test_completion_names_the_failed_check(self, monkeypatch):
        real = resolution.discriminant
        monkeypatch.setattr(resolution, "discriminant", lambda g, sel=None: real(g, sel) + 1)
        with pytest.raises(PipelineInvariantViolation) as err:
            build_completion(CuspPair(5, 2))
        assert "boundary_discriminant: expected -1, computed 0" in str(err.value)


def test_fiber_role_orders_chain_and_other_members():
    # a chain member is listed in path order, any other member sorted, and
    # the member check records which it was
    chain = build_graph([(5, -2), (1, -1), (7, -2)], [(5, 1), (1, 7)])
    fork = build_graph([(0, -1), (1, -2), (2, -2), (3, -2)], [(0, 1), (0, 2), (0, 3)])
    for g, ids, want, is_chain in ((chain, [7, 1, 5], (5, 1, 7), True),
                                   (fork, [3, 1, 0, 2], (0, 1, 2, 3), False)):
        seen = []
        role, fiber = resolution._fiber_role(
            g, ids, 1, {5, 2}, {7, 3}, dict.fromkeys(ids, 1),
            lambda *check: seen.append(check), "one")
        assert seen[0] == ("member_one_is_chain", True, is_chain)
        assert role.vertices == want and fiber.graph == g
