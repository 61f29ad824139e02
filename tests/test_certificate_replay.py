"""An independent replay of the move rows a certificate emits.

The replayer reads nothing but the certificate's JSON and uses no package
code: a graph is a list of ids in canonical order, a dict of weights and a
list of (low, high) edges.  It starts from the seed plane, the two axes
and the far line (vertices 0, 1 and 2 of weight 1, joined pairwise),
applies the `moves.resolution` rows at their positions, glues the curve
(weight n^2 - nm - n(n - m) = 0) to the two sections, applies the
`moves.minimalization` rows, and must arrive at the emitted graph.  d_v1
and d_v2 are then the continuants of the negated weights along each
fiber's near part.  Each sides check must hold the fiber's near and far
parts, and the two sides of its free vertex, as sorted lists of sorted
lists.
"""

import io
import json
from contextlib import redirect_stdout
from math import gcd
from pathlib import Path

import pytest

from dualgraph.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

#: a blow-up's kind, indexed by the number of its anchors
BLOW_UP_KINDS = ("spawn", "blow_up_free", "blow_up_edge")


def apply_row(order, weight, edges, row):
    v, anchors, position = row["vertex"], row["anchors"], row["position"]
    if row["kind"] == "blow_down":
        assert weight.pop(v) == -1, f"blow-down of {v}, which is no (-1)-curve"
        assert order.pop(position) == v, f"blow-down of {v} is not at position {position}"
        meets = [a if b == v else b for a, b in edges if v in (a, b)]
        assert sorted(meets) == sorted(anchors), f"anchors {anchors} are not the neighbours of {v}"
        edges[:] = [e for e in edges if v not in e]
        for a in anchors:
            weight[a] += 1
        if len(anchors) == 2:
            edges.append(tuple(sorted(anchors)))
    else:
        assert row["kind"] == BLOW_UP_KINDS[len(anchors)], f"{row['kind']} with anchors {anchors}"
        assert v not in weight, f"blow-up reuses the id {v}"
        order.insert(position, v)
        weight[v] = -1
        if len(anchors) == 2:
            edges.remove(tuple(sorted(anchors)))
        for a in anchors:
            weight[a] -= 1
            edges.append(tuple(sorted((a, v))))


def continuant(entries):
    previous, current = 0, 1
    for a in entries:
        previous, current = current, a * current - previous
    return current


def replay_certificate(cert):
    """Check the emitted graph, d_v1, d_v2 and the sides checks against a replay of the move rows."""
    assert cert["schema"] == "dualgraph.certificate/2"
    assert "seed" not in cert["inputs"]
    order, weight, edges = [0, 1, 2], {0: 1, 1: 1, 2: 1}, [(0, 1), (0, 2), (1, 2)]
    for row in cert["moves"]["resolution"]:
        apply_row(order, weight, edges, row)
    results = cert["results"]
    (curve,) = results["graph"]["roles"]["curve"]
    assert curve not in weight
    order.append(curve)
    weight[curve] = 0
    edges += [tuple(sorted((s, curve))) for s in results["sections"]]
    for row in cert["moves"]["minimalization"]:
        apply_row(order, weight, edges, row)

    graph = results["graph"]
    assert [[v, weight[v]] for v in order] == graph["vertices"]
    assert sorted(map(list, edges)) == graph["edges"]
    for d, fiber in (("d_v1", "fiber_one"), ("d_v2", "fiber_two")):
        assert continuant(-weight[v] for v in results[fiber]["near_part"]) == results[d]

    computed = {c["name"]: c["computed"] for c in cert["checks"]}
    for tag in ("one", "two"):
        fiber = results[f"fiber_{tag}"]
        vertices = fiber["vertices"]
        i = vertices.index(fiber["free_vertex"])
        sides = computed[f"member_{tag}_sides_are_near_far"]
        assert sides == sorted([sorted(fiber["near_part"]), sorted(fiber["far_part"])])
        assert sides == sorted([sorted(vertices[:i]), sorted(vertices[i + 1:])])


def verify_theorem(n, m):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["verify-theorem", str(n), str(m), "--format", "json"]) == 0
    return json.loads(out.getvalue())


def test_replay_rejects_a_shifted_blow_down():
    cert = verify_theorem(5, 2)
    replay_certificate(cert)
    row = next(r for r in cert["moves"]["minimalization"] if r["kind"] == "blow_down")
    row["position"] += 1
    with pytest.raises(AssertionError, match="is not at position"):
        replay_certificate(cert)


def test_replay_rejects_sides_that_are_not_the_near_and_far_parts():
    cert = verify_theorem(5, 2)
    check = next(c for c in cert["checks"] if c["name"] == "member_one_sides_are_near_far")
    near, far = cert["results"]["fiber_one"]["near_part"], cert["results"]["fiber_one"]["far_part"]
    check["computed"] = sorted([sorted(near[1:]), sorted(far + near[:1])])
    with pytest.raises(AssertionError):
        replay_certificate(cert)


def test_frozen_certificates_replay():
    frozen = json.loads((FIXTURES / "theorem_certificates_12.json").read_text())
    assert len(frozen) == 45
    for cert in frozen.values():
        replay_certificate(cert)


def test_fresh_certificates_replay():
    pairs = [(n, m) for n in range(2, 31) for m in range(1, n) if gcd(n, m) == 1]
    assert len(pairs) == 277
    for n, m in pairs:
        replay_certificate(verify_theorem(n, m))
