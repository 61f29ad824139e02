"""The four benchmark workloads and the checks that certify their outputs.

A workload turns a seed into a list of items, calls the package once per
item, and checks each output.  Every check leans on something the code
under test does not compute by itself: a frozen fixture, a continuant
evaluated here from the emitted graph, an invariant of the move calculus,
or sympy's determinant.  A check returns a list of problems; an empty list
certifies the output.

The package is reached only through the module namespace handed to each
call (``pkg``), so the runner can re-import it between set-ups.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import gcd, prod
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

FIXTURES = Path("tests") / "fixtures"


def run_cli(pkg, argv: Sequence[str]) -> Tuple[int, str, str]:
    """Run ``dualgraph.cli.main`` in-process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pkg.cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _cli_problems(rc: int, text: str, err: str):
    """Parse a JSON certificate; return (payload, problems)."""
    if rc != 0:
        return None, [f"exit status {rc}: {err.strip()[:200]}"]
    try:
        payload = json.loads(text)
    except ValueError as e:
        return None, [f"output is not JSON: {e}"]
    if payload.get("status") != "pass":
        return payload, [f"status {payload.get('status')!r}"]
    return payload, []


def chain_discriminant(weights: Sequence[int]) -> int:
    """det(-Q) of a chain with the given weights, by the continuant recurrence."""
    before, d = 0, 1
    for w in weights:
        before, d = d, -w * d - before
    return d


def chain_walk(vertices: Sequence[int], edges: Sequence[Sequence[int]]):
    """Path order of a chain given as vertex ids and an edge list, or None.

    Written here, apart from the package, so that checks can read chains
    out of emitted graphs without trusting ``chain_order``.
    """
    if not vertices:
        return []
    adj: Dict[int, List[int]] = {v: [] for v in vertices}
    for a, b in edges:
        if a not in adj or b not in adj or a == b:
            return None
        adj[a].append(b)
        adj[b].append(a)
    if len(edges) != len(vertices) - 1 or any(len(n) > 2 for n in adj.values()):
        return None
    tips = [v for v in vertices if len(adj[v]) <= 1]
    order, prev = [tips[0]], None
    while len(order) < len(vertices):
        nxt = [u for u in adj[order[-1]] if u != prev]
        if not nxt:
            return None
        prev = order[-1]
        order.append(nxt[0])
    return order if len(set(order)) == len(vertices) else None


def path_discriminant(path: Sequence[int], weight: Dict[int, int], edges) -> int:
    """det(-Q) of a selection that must be the chain ``path`` in that order.

    Returns None when the induced edges are not exactly one between each
    pair of path neighbours.
    """
    pos = {v: i for i, v in enumerate(path)}
    links = [0] * max(len(path) - 1, 0)
    for a, b in edges:
        if a in pos and b in pos:
            i, j = sorted((pos[a], pos[b]))
            if j != i + 1:
                return None
            links[i] += 1
    if any(c != 1 for c in links):
        return None
    return chain_discriminant([weight[v] for v in path])


def fraction_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in r] for r in rows]
    n, det = len(a), Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return int(det)


def graph_state(g):
    """(ids in order, weights in order, sorted edges) of a package graph."""
    return (tuple(g.vertices), tuple(g.weight(v) for v in g.vertices), tuple(sorted(g.edges)))


class Workload:
    """One set of inputs, the call that processes one item, and its checks."""

    name = ""
    unit = ""
    #: whether the seed changes the inputs at all
    seeded = True
    #: the independent oracle used by final_checks, when there is one
    oracle = None

    def fixtures(self, root: Path, tiny: bool):
        return None

    def inputs(self, pkg, seed: int, tiny: bool) -> list:
        raise NotImplementedError

    def call(self, pkg, item):
        raise NotImplementedError

    def check(self, item, output, fixtures) -> List[str]:
        raise NotImplementedError

    def units(self, item, output) -> int:
        return 1

    def final_checks(self, items, outputs: dict, seed: int, tiny: bool) -> Dict[int, List[str]]:
        """Costly checks on a seeded subsample, run once after timing."""
        return {}


# --------------------------------------------------------------- verify_sweep

# (family, centre k): (k+1, k) or (2k+1, 2).  The seed moves each k by at
# most two, which keeps the cost of the large pairs nearly seed-independent.
LARGE_PAIRS = (("succ", 121), ("succ", 163), ("two", 113), ("two", 153))


class VerifySweep(Workload):
    name = "verify_sweep"
    unit = "certificates"

    def fixtures(self, root, tiny):
        """The frozen certificates, rendered the way the CLI renders them."""
        frozen = json.loads((root / FIXTURES / "theorem_certificates_12.json").read_text())
        return {k: json.dumps(v, sort_keys=True, indent=2) + "\n" for k, v in frozen.items()}

    def inputs(self, pkg, seed, tiny):
        top = 6 if tiny else 30
        pairs = [(n, m) for n in range(2, top + 1) for m in range(1, n) if gcd(n, m) == 1]
        rng = random.Random(seed)
        strata = (("succ", 20),) if tiny else LARGE_PAIRS
        for family, k in strata:
            k += rng.randint(-2, 2)
            pairs.append((k + 1, k) if family == "succ" else (2 * k + 1, 2))
        return [
            {"n": n, "m": m,
             "argv": ["verify-theorem", str(n), str(m), "--format", "json"]}
            for n, m in pairs
        ]

    def call(self, pkg, item):
        return run_cli(pkg, item["argv"])

    def check(self, item, output, frozen):
        rc, text, err = output
        payload, bad = _cli_problems(rc, text, err)
        if payload is None:
            return bad
        n, m = item["n"], item["m"]
        res = payload["results"]
        if (res.get("d_v1"), res.get("d_v2")) != (n, m):
            bad.append(f"d_v1, d_v2 = {res.get('d_v1')}, {res.get('d_v2')}; want {n}, {m}")
        weight = {v: w for v, w in res["graph"]["vertices"]}
        edges = res["graph"]["edges"]
        for tag, want in (("fiber_one", n), ("fiber_two", m)):
            d = path_discriminant(res[tag]["near_part"], weight, edges)
            if d != want:
                bad.append(f"continuant of {tag} near part is {d}, want {want}")
        key = f"{n},{m}"
        if key in frozen and text != frozen[key]:
            bad.append(f"certificate for ({key}) differs from the frozen fixture")
        return bad


# --------------------------------------------------------------- fiber_census

class FiberCensus(Workload):
    name = "fiber_census"
    unit = "classes"
    seeded = False

    def _max(self, tiny):
        return 5 if tiny else 8

    def fixtures(self, root, tiny):
        counts = json.loads((root / FIXTURES / "fiber_counts.json").read_text())
        return {k: v for k, v in counts.items() if int(k) <= self._max(tiny)}

    def inputs(self, pkg, seed, tiny):
        return [{"argv": ["fibers", "--max", str(self._max(tiny)), "--validate",
                          "--format", "json"]}]

    def call(self, pkg, item):
        return run_cli(pkg, item["argv"])

    def check(self, item, output, counts):
        rc, text, err = output
        payload, bad = _cli_problems(rc, text, err)
        if payload is None:
            return bad
        res = payload["results"]
        if res.get("by_size") != counts:
            bad.append(f"by_size {res.get('by_size')} != fixture {counts}")
        if res.get("violations") != 0:
            bad.append(f"violations = {res.get('violations')}")
        if res.get("total") != sum(counts.values()):
            bad.append(f"total {res.get('total')} != {sum(counts.values())}")
        return bad

    def units(self, item, output):
        return json.loads(output[1])["results"]["total"]


# -------------------------------------------------------------- chain_rewrite

class ChainRewrite(Workload):
    name = "chain_rewrite"
    unit = "chains"

    def inputs(self, pkg, seed, tiny):
        rng = random.Random(seed)
        # Every big weight from 10 to 120 appears once, with a length of 2..8
        # fixed by it, so the cost of a pass barely depends on the seed; the
        # seed picks the other weights, the big weight's place and the order.
        big = [10, 25, 40, 70, 120] if tiny else list(range(10, 121))
        rng.shuffle(big)
        items = []
        for w in big:
            length = 2 + w % 7
            weights = [rng.randint(-5, -2) for _ in range(length)]
            weights[rng.randrange(length)] = w
            edges = [(j, j + 1) for j in range(length - 1)]
            g = pkg.build_graph(list(enumerate(weights)), edges)
            items.append({"graph": g, "weights": tuple(weights),
                          "state": (tuple(range(length)), tuple(weights), tuple(edges))})
        return items

    def call(self, pkg, item):
        g = item["graph"]
        res = pkg.standardize_chain(g)
        forward = res.log.replay(g)
        back = res.log.inverted().replay(res.graph)
        return res, forward, back

    def check(self, item, output, fixtures):
        res, forward, back = output
        bad = []
        final = graph_state(res.graph)
        if graph_state(forward) != final:
            bad.append("forward replay of the log does not reproduce the result")
        if graph_state(back) != item["state"]:
            bad.append("inverted replay does not restore the input")
        order = chain_walk(final[0], final[2])
        if order is None:
            bad.append("result is not a chain")
            return bad
        weight = dict(zip(final[0], final[1]))
        entries = [-weight[v] for v in order]
        reading = min(tuple(entries), tuple(reversed(entries)))
        standard = reading in ((0,), (1,)) or (
            len(reading) >= 2 and reading[:2] == (0, 0) and all(x >= 2 for x in reading[2:]))
        if not (standard and res.is_standard):
            bad.append(f"result {reading} is not standard (flag {res.is_standard})")
        if tuple(res.chain_type.entries) != reading:
            bad.append(f"chain_type {res.chain_type.entries} != graph reading {reading}")
        if chain_discriminant([weight[v] for v in order]) != chain_discriminant(item["weights"]):
            bad.append("moves changed the discriminant")
        return bad


# ------------------------------------------------------------ lattice_kernels

SHAPES = ("chain", "tree", "cyclic")


class LatticeKernels(Workload):
    name = "lattice_kernels"
    unit = "graphs"
    #: graphs whose determinant is checked against sympy in each run
    subsample = 3

    def inputs(self, pkg, seed, tiny):
        rng = random.Random(seed)
        sizes = (10, 12) if tiny else range(10, 41, 2)
        items = []
        for n in sizes:
            for shape in SHAPES:
                weights = [rng.randint(-6, -1) for _ in range(n)]
                if shape == "chain":
                    edges = [(i, i + 1) for i in range(n - 1)]
                else:
                    edges = [(i, rng.randrange(i)) for i in range(1, n)]
                if shape == "cyclic":
                    # may repeat a tree edge: a parallel edge is a 2-cycle
                    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3))]
                q = [[0] * n for _ in range(n)]
                for i, w in enumerate(weights):
                    q[i][i] = w
                for a, b in edges:
                    q[a][b] += 1
                    q[b][a] += 1
                g = pkg.build_graph(list(enumerate(weights)), edges)
                items.append({"graph": g, "n": n, "shape": shape, "q": q})
        return items

    def call(self, pkg, item):
        g = item["graph"]
        return pkg.smith_invariants(g), pkg.signature(g)

    def check(self, item, output, fixtures):
        inv, sig = output
        bad = []
        factors = inv.invariant_factors
        zero_factors = sum(1 for f in factors if f == 0)
        if sum(sig) != item["n"] or len(factors) != item["n"]:
            bad.append(f"sizes: signature {sig}, {len(factors)} factors, n = {item['n']}")
        if zero_factors != sig[1]:
            bad.append(f"{zero_factors} zero invariant factors but nullity {sig[1]}")
        if (inv.discriminant == 0) != (sig[1] > 0):
            bad.append(f"d = {inv.discriminant} disagrees with nullity {sig[1]}")
        if prod(factors) != abs(inv.discriminant):
            bad.append(f"product of invariant factors != |d| = {abs(inv.discriminant)}")
        return bad

    def final_checks(self, items, outputs, seed, tiny):
        try:
            import sympy
        except ImportError:  # the oracle falls back to exact rational elimination
            sympy = None
        self.oracle = "sympy" if sympy else "fraction_det"
        rng = random.Random(seed)
        picked = rng.sample(sorted(outputs), min(1 if tiny else self.subsample, len(outputs)))
        bad = {}
        for i in picked:
            neg = [[-x for x in row] for row in items[i]["q"]]
            want = int(sympy.Matrix(neg).det()) if sympy else fraction_det(neg)
            got = outputs[i][0].discriminant
            if got != want:
                bad[i] = [f"discriminant {got} != {self.oracle} determinant {want}"]
        return bad


WORKLOADS = {w.name: w for w in (VerifySweep, FiberCensus, ChainRewrite, LatticeKernels)}
