"""Acceptance suite.

One test per criterion; each passes only on exact integer equality and
prints a single summary line.  Budgets are wall-clock ceilings, not
targets; actual runtimes are far below them.
"""

import bisect
import itertools
import json
import random
import time
from collections import Counter, defaultdict
from math import gcd
from pathlib import Path

import pytest
import sympy

from dualgraph.chains import standardize_chain
from dualgraph.cli import _handler, _render_json, build_parser
from dualgraph.errors import NotSnc, TooBranched
from dualgraph.fibration import enumerate_fibers, validate_fiber
from dualgraph.graph import build_graph, intersection_matrix
from dualgraph.homology import divisibility_check, q_acyclicity_relation
from dualgraph.lattice import (
    definiteness,
    discriminant,
    discriminant_by_splitting,
    signature,
    smith_invariants,
)
from dualgraph.moves import MoveLog, blow_down, blow_up, snc_minimalize
from dualgraph.resolution import CuspPair, build_completion, coprime_pairs, theorem_pipeline

from test_graph import chain
from test_intmat import bareiss_discriminant

FIXTURES = Path(__file__).parent / "fixtures"


def note(k, slug):
    print(f"criterion {k} ({slug}): PASS")


def random_tree(rng, size, weights=(-5, 2)):
    spec = [(0, rng.randint(*weights))]
    edges = []
    for v in range(1, size):
        spec.append((v, rng.randint(*weights)))
        edges.append((rng.randrange(v), v))
    return build_graph(spec, edges)


def test_criterion_1_fibration_endgame():
    started = time.monotonic()
    pairs = coprime_pairs(2, 30)
    assert len(pairs) == 248  # every coprime (n, m) with 2 <= m < n <= 30
    for p in pairs:
        cert = theorem_pipeline(p)
        assert (cert.d_near_one, cert.d_near_two) == (p.n, p.m)
        by_name = {c.name: c for c in cert.checks}
        assert by_name["outside_surplus"].computed == 0
        assert by_name["counting_identity"].passed
        assert all(c.passed for c in cert.checks)
    elapsed = time.monotonic() - started
    assert elapsed < 30
    note(1, "fibration endgame d(V1)=n, d(V2)=m over 248 pairs")


def test_criterion_2_boundary_discriminants():
    for p in coprime_pairs(1, 20):
        c = build_completion(p)
        g = c.graph
        boundary_chain = tuple(c.line_part) + (c.bridge,) + tuple(c.far_part)
        assert discriminant(g, boundary_chain) == -1
        d_far = discriminant(g, c.far_part)
        assert d_far >= 2
        if c.line_part:
            assert gcd(abs(discriminant(g, c.line_part)), d_far) == 1
    note(2, "plane boundary: d = -1, d_far >= 2, coprime sides")


def test_criterion_3_euler_bookkeeping():
    for p in coprime_pairs(1, 20):
        c = build_completion(p)
        contacts = sum(c.graph.edge_multiplicity(c.bridge, v) for v in c.line_part)
        assert c.euler_open_part == -contacts
        if c.line_part:
            assert c.euler_open_part == -1
    note(3, "euler of the open part equals minus the bridge contacts")


def _prufer_edges(seq, k):
    degree = [1] * k
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    leaves = sorted(v for v in range(k) if degree[v] == 1)
    for v in seq:
        leaf = leaves.pop(0)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return tuple(edges)


def _tree_shapes(max_vertices):
    """All unlabeled trees up to max_vertices, one labeled witness each."""
    shapes = []
    for k in range(1, max_vertices + 1):
        if k == 1:
            shapes.append((1, ()))
            continue
        if k == 2:
            shapes.append((2, ((0, 1),)))
            continue
        seen = set()
        for seq in itertools.product(range(k), repeat=k - 2):
            edges = _prufer_edges(seq, k)
            key = _canon_tree(k, edges)
            if key not in seen:
                seen.add(key)
                shapes.append((k, edges))
    return shapes


def _canon_tree(k, edges):
    adj = defaultdict(list)
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    # center by leaf stripping
    degree = {v: len(adj[v]) for v in range(k)}
    alive = set(range(k))
    layer = [v for v in alive if degree[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for u in adj[v]:
                if u in alive:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt

    def enc(v, parent):
        return "(" + "".join(sorted(enc(u, v) for u in adj[v] if u != parent)) + ")"

    return min(enc(c, None) for c in alive)


def test_criterion_4_splitting_identity():
    started = time.monotonic()
    shapes = _tree_shapes(7)
    assert len(shapes) == 1 + 1 + 1 + 2 + 3 + 6 + 11
    for k, edges in shapes:
        # symbolic: the determinant satisfies the tip-splitting recursion
        # identically in the weights, so checking a corner grid below is
        # enough (the determinant is multilinear in the diagonal)
        syms = sympy.symbols(f"w0:{k}")
        mat = sympy.zeros(k, k)
        for i in range(k):
            mat[i, i] = -syms[i]
        for a, b in edges:
            mat[a, b] = mat[b, a] = -1
        full = mat.det(method="berkowitz")
        if k >= 2:
            tip = next(v for v in range(k)
                       if sum(1 for e in edges if v in e) == 1)
            nb = next(a + b - tip for a, b in edges if tip in (a, b))
            keep = [v for v in range(k) if v != tip]
            sub = mat[keep, keep].det(method="berkowitz")
            keep2 = [v for v in range(k) if v not in (tip, nb)]
            sub2 = mat[keep2, keep2].det(method="berkowitz") if keep2 else 1
            assert sympy.expand(full - (-syms[tip] * sub - sub2)) == 0
        # concrete: corner grid; multilinearity extends it to all of [-5,2]^k
        grid = [(-5, 2)] * k if k > 4 else [range(-5, 3)] * k
        for weights in itertools.product(*grid):
            g = build_graph(list(enumerate(weights)), edges)
            assert discriminant_by_splitting(g) == bareiss_discriminant(g)
    rng = random.Random(20260817)
    for i in range(1000):
        g = random_tree(rng, rng.randint(1, 12))
        d = bareiss_discriminant(g)
        assert discriminant_by_splitting(g) == d
        assert discriminant(g) == d
        if i % 50 == 0:  # independent oracle spot checks
            mat = sympy.Matrix([[-w for w in row]
                                for row in intersection_matrix(g)])
            assert mat.det(method="berkowitz") == d
    elapsed = time.monotonic() - started
    assert elapsed < 60
    note(4, "splitting rule matches determinants on all small trees")


def test_criterion_5_fiber_enumeration():
    started = time.monotonic()
    fibers = enumerate_fibers(8)
    by_size = Counter(len(f.graph.vertices) for f in fibers)
    assert [by_size[k] for k in range(1, 9)] == [1, 1, 2, 5, 18, 70, 320, 1525]
    second_tier = 0
    for f in fibers:
        report = validate_fiber(f)
        assert report.ok, report.violations
        second_tier += report.second_tier_applies
    assert second_tier > 0
    elapsed = time.monotonic() - started
    assert elapsed < 120
    note(5, f"all {len(fibers)} fibers validate, zero violations")


def _random_move(rng, g):
    kind = rng.choice(["free", "edge", "down"])
    if kind == "free" and len(g):
        return blow_up(g, (rng.choice(list(g.vertices)),))
    if kind == "edge" and g.edges:
        a, b = rng.choice(list(g.edges))
        return blow_up(g, (a, b))
    candidates = [v for v in g.vertices if g.weight(v) == -1]
    rng.shuffle(candidates)
    for v in candidates:
        try:
            return blow_down(g, v)
        except (TooBranched, NotSnc):
            continue
    return None


def test_criterion_6_move_calculus():
    started = time.monotonic()
    rng = random.Random(1729)
    for _ in range(1000):
        g0 = random_tree(rng, rng.randint(1, 8))
        d0 = discriminant(g0)
        sig0 = signature(g0)
        g, moves = g0, []
        for _ in range(rng.randint(1, 30)):
            step = _random_move(rng, g)
            if step is None:
                break
            g, m = step
            moves.append(m)
        assert discriminant(g) == d0
        assert signature(g)[:2] == sig0[:2]
        log = MoveLog(tuple(moves))
        assert log.inverted().replay(g) == g0
    minimal, log = snc_minimalize(random_tree(rng, 9))
    again, log2 = snc_minimalize(minimal)
    assert again == minimal and len(log2.moves) == 0
    elapsed = time.monotonic() - started
    assert elapsed < 30
    note(6, "moves preserve the discriminant and invert exactly")


def test_criterion_7_standard_forms():
    res = standardize_chain(chain([-2, -1, -2], start=0))
    assert res.chain_type.entries == (0,)

    rng = random.Random(404)
    for _ in range(200):
        g = chain([0, 0], start=0)
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.5 and g.edges:
                a, b = rng.choice(list(g.edges))
                g, _ = blow_up(g, (a, b))
            else:
                tips = [v for v in g.vertices
                        if sum(g.edge_multiplicity(v, u)
                               for u in g.vertices if u != v) <= 1]
                g, _ = blow_up(g, (rng.choice(tips),))
        assert discriminant(g) == -1
        assert standardize_chain(g).chain_type.entries == (0, 0)

    for a in range(-10, 11):
        d = discriminant(chain([-2, -a, -2], start=0))
        assert d == 4 * (a - 1)
        assert d % 2 == 0
    note(7, "chains reach [0], [0,0]; d[2,a,2] = 4(a-1)")


def test_criterion_8_torsion_and_divisibility():
    rng = random.Random(31337)
    seen = Counter()
    while seen["negative-definite"] < 250 or seen["indefinite"] < 250:
        if rng.random() < 0.5:
            g = random_tree(rng, rng.randint(1, 8))
            spec = [(v, -(sum(g.edge_multiplicity(v, u) for u in g.vertices
                               if u != v) + rng.randint(1, 3)))
                    for v in g.vertices]
            g = build_graph(spec, g.edges)
        else:
            g = random_tree(rng, rng.randint(2, 8), weights=(-3, 3))
        kind = definiteness(g)
        d = discriminant(g)
        if kind not in ("negative-definite", "indefinite") or d == 0:
            continue
        if seen[kind] >= 250:
            continue
        seen[kind] += 1
        inv = smith_invariants(g)
        assert inv.torsion_order == abs(d)

    assert q_acyclicity_relation(1, 1).torsion_order == 1
    assert q_acyclicity_relation(9, 1).torsion_order == 3
    assert not q_acyclicity_relation(6, 2).consistent

    for n in range(2, 13):
        report = divisibility_check(build_completion(CuspPair(n, 1)))
        assert report.coprime and not report.divides
        assert report.contradiction
    note(8, "smith order = |d| on 500 lattices; torsion relation cases")


def test_criterion_9_frozen_regressions():
    counts = json.loads((FIXTURES / "fiber_counts.json").read_text())
    fibers = enumerate_fibers(9)
    by_size = Counter(len(f.graph.vertices) for f in fibers)
    assert {str(k): by_size[k] for k in sorted(by_size)} == counts

    frozen = json.loads((FIXTURES / "theorem_certificates_12.json").read_text())
    pairs = coprime_pairs(1, 12)
    assert sorted(frozen) == sorted(f"{p.n},{p.m}" for p in pairs)
    assert len(pairs) == 45
    parser = build_parser()
    for p in pairs:
        args = parser.parse_args(
            ["verify-theorem", str(p.n), str(p.m), "--format", "json"])
        text = _render_json(args, _handler(args.command)(args))
        want = frozen[f"{p.n},{p.m}"]
        assert text == json.dumps(want, sort_keys=True, indent=2) + "\n"
    note(9, "fiber counts and 45 certificates match frozen bytes")
