"""Command-line front end.

Every command reads graphs in the text format, runs one operation, and
emits a certificate: the echoed inputs, the computed results, and a list
of named checks with expected and computed values.  Output is plain text
by default, versioned JSON with --format json, Graphviz with --format
dot.  Exit status: 0 all checks pass, 1 some check or operation failed,
2 the invocation itself was unusable.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .chains import standardize_chain
from .dsl import GraphDocument, dot_graph, format_document, parse_document
from .errors import BadOrder, DualGraphError, NotCoprime, Transversal
from .fibration import enumerate_fibers, validate_fiber
from .homology import euler_open, q_acyclicity_relation
from .lattice import discriminant, smith_invariants
from .moves import blow_down, blow_up, snc_minimalize
from .resolution import (
    CheckResult,
    CuspPair,
    build_completion,
    coprime_pairs,
    resolve_at_infinity,
    resolve_cusp_local,
    theorem_pipeline,
)

SCHEMA = "dualgraph.certificate/1"


class UsageFailure(Exception):
    """Invocation problem: bad flags, unreadable input, unsupported combination."""


@dataclass
class CommandResult:
    results: dict
    checks: Sequence[CheckResult] = ()
    moves: Dict[str, List[dict]] = field(default_factory=dict)
    document: Optional[GraphDocument] = None
    multiplicity: Optional[Dict[int, int]] = None
    dot_label: Optional[str] = None
    dot_blocks: Optional[List[Tuple[str, GraphDocument, Optional[Dict[int, int]]]]] = None
    summary: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _jsonable(x):
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [_jsonable(t) for t in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return str(x)


def _move_rows(log) -> List[dict]:
    return [
        {"kind": m.kind, "vertex": m.vertex, "position": m.position,
         "anchors": list(m.anchors)}
        for m in log
    ]


def _graph_payload(doc: GraphDocument) -> dict:
    g = doc.graph
    return {
        "vertices": [[v, g.weight(v)] for v in g.vertices],
        "edges": [list(e) for e in sorted(g.edges)],
        "roles": {name: list(ids) for name, ids in sorted(doc.roles.items())},
    }


def _load(path: str) -> GraphDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageFailure(f"cannot read {path}: {e.strerror or e}")
    try:
        return parse_document(text)
    except DualGraphError as e:
        raise UsageFailure(f"{path}: {e}")


def _surviving_roles(doc: GraphDocument, g) -> Dict[str, Tuple[int, ...]]:
    alive = set(g.vertices)
    out = {}
    for name, ids in doc.roles.items():
        kept = tuple(v for v in ids if v in alive)
        if kept:
            out[name] = kept
    return out


def _pair(n: int, m: int) -> CuspPair:
    try:
        return CuspPair(n, m)
    except (NotCoprime, BadOrder, TypeError) as e:
        raise UsageFailure(str(e))


# ---------------------------------------------------------------- commands

def cmd_disc(args) -> CommandResult:
    doc = _load(args.file)
    sel = tuple(args.sub) if args.sub is not None else None
    d = discriminant(doc.graph, sel)
    return CommandResult(
        results={
            "discriminant": d,
            "selection": list(args.sub) if args.sub is not None else "all",
        },
        document=doc,
        dot_label=f"d = {d}",
        summary=[f"discriminant: {d}"],
    )


def cmd_minimalize(args) -> CommandResult:
    doc = _load(args.file)
    g, log = snc_minimalize(doc.graph, tuple(args.protect or ()))
    out = GraphDocument(g, _surviving_roles(doc, g))
    return CommandResult(
        results={"contracted": len(log.moves), "graph": _graph_payload(out)},
        moves={"minimalization": _move_rows(log)},
        document=out,
        summary=[f"contracted {len(log.moves)} vertices"],
    )


def cmd_standardize(args) -> CommandResult:
    doc = _load(args.file)
    res = standardize_chain(doc.graph)
    out = GraphDocument(res.graph)
    return CommandResult(
        results={
            "chain_type": list(res.chain_type.entries),
            "is_standard": res.is_standard,
            "moves_used": len(res.log.moves),
            "graph": _graph_payload(out),
        },
        moves={"standardization": _move_rows(res.log)},
        document=out,
        summary=["chain type: [" + ", ".join(str(t) for t in res.chain_type.entries) + "]"],
    )


def cmd_blowup(args) -> CommandResult:
    doc = _load(args.file)
    if args.vertex is not None:
        anchors, where = (args.vertex,), f"at vertex {args.vertex}"
    else:
        anchors = args.edge
        where = f"on edge {anchors[0]}-{anchors[1]}"
    g, mv = blow_up(doc.graph, anchors)
    out = GraphDocument(g, dict(doc.roles))
    return CommandResult(
        results={"created": mv.vertex, "graph": _graph_payload(out)},
        moves={"main": _move_rows([mv])},
        document=out,
        summary=[f"blew up {where}, created vertex {mv.vertex}"],
    )


def cmd_blowdown(args) -> CommandResult:
    doc = _load(args.file)
    g, mv = blow_down(doc.graph, args.vertex)
    out = GraphDocument(g, _surviving_roles(doc, g))
    return CommandResult(
        results={"removed": args.vertex, "graph": _graph_payload(out)},
        moves={"main": _move_rows([mv])},
        document=out,
        summary=[f"blew down vertex {args.vertex}"],
    )


def cmd_fibers(args) -> CommandResult:
    if args.max < 1:
        raise UsageFailure("--max must be at least 1")
    fibers = enumerate_fibers(args.max)
    by_size = Counter(len(f.graph.vertices) for f in fibers)
    results = {
        "max_vertices": args.max,
        "total": len(fibers),
        "by_size": {str(k): by_size[k] for k in sorted(by_size)},
    }
    checks = []
    summary = [f"fibers with up to {args.max} vertices: {len(fibers)}"]
    summary += [f"  {k} vertices: {by_size[k]}" for k in sorted(by_size)]
    if args.validate:
        violations = sum(len(validate_fiber(f).violations) for f in fibers)
        results["violations"] = violations
        checks.append(CheckResult("no_violations", 0, violations))
        summary.append(f"violations: {violations}")
    blocks = [
        (f"fiber_{i}", GraphDocument(f.graph), dict(f.multiplicity))
        for i, f in enumerate(fibers)
    ]
    return CommandResult(results=results, checks=checks, summary=summary,
                         dot_blocks=blocks)


def cmd_resolve(args) -> CommandResult:
    pair = _pair(args.n, args.m)
    try:
        if args.stage == "local":
            return _resolve_local(pair)
        if args.stage == "infinity":
            return _resolve_infinity(pair)
        return _resolve_completion(pair)
    except Transversal as e:
        raise UsageFailure(str(e))


def _resolve_local(pair: CuspPair) -> CommandResult:
    loc = resolve_cusp_local(pair)
    roles = {"curve": (loc.curve,)}
    if loc.cusp_part:
        roles["cusp_part"] = loc.cusp_part
    out = GraphDocument(loc.graph, roles)
    d = discriminant(loc.graph, loc.cusp_part)
    return CommandResult(
        results={"n": pair.n, "m": pair.m, "stage": "local",
                 "d_cusp_part": d, "graph": _graph_payload(out)},
        checks=[CheckResult("cusp_part_discriminant", 1 if loc.cusp_part else None,
                            d if loc.cusp_part else None)],
        moves={"resolution": _move_rows(loc.log)},
        document=out,
        summary=[f"resolved x^{pair.n} = y^{pair.m} near the origin: "
                 f"{len(loc.cusp_part)} exceptional vertices"],
    )


def _resolve_infinity(pair: CuspPair) -> CommandResult:
    inf = resolve_at_infinity(pair)
    g = inf.graph
    roles = {"line": (inf.line,), "bridge": (inf.bridge,), "far_part": inf.far_part}
    if inf.line_part:
        roles["line_part"] = inf.line_part
    out = GraphDocument(g, roles)
    d_all = discriminant(g)
    d_far = discriminant(g, inf.far_part)
    return CommandResult(
        results={"n": pair.n, "m": pair.m, "stage": "infinity",
                 "d_total": d_all, "d_far_part": d_far,
                 "d_line_part": discriminant(g, inf.line_part),
                 "graph": _graph_payload(out)},
        checks=[CheckResult("total_discriminant", -1, d_all),
                CheckResult("far_part_discriminant", pair.n, d_far)],
        moves={"resolution": _move_rows(inf.log)},
        document=out,
        summary=[f"resolved x^{pair.n} = y^{pair.m} at infinity: d_total {d_all}, "
                 f"d_far {d_far}"],
    )


#: the completion model's checks that `resolve --stage completion` prints
_COMPLETION_CHECKS = ("boundary_discriminant", "far_part_floor", "sides_coprime",
                     "euler_vs_bridge_contacts")


def _resolve_completion(pair: CuspPair) -> CommandResult:
    c = build_completion(pair)
    g = c.graph
    roles = {"curve": (c.curve,), "bridge": (c.bridge,), "far_part": c.far_part}
    if c.cusp_part:
        roles["cusp_part"] = c.cusp_part
    if c.line_part:
        roles["line_part"] = c.line_part
    if c.line is not None:
        roles["line"] = (c.line,)
    out = GraphDocument(g, roles)
    return CommandResult(
        results={"n": pair.n, "m": pair.m, "stage": "completion",
                 "rho": c.rho, "euler_open_part": c.euler_open_part,
                 "curve_weight": g.weight(c.curve),
                 "d_boundary_chain": c.d_chain, "d_far_part": c.d_far,
                 "d_line_part": c.d_line,
                 "d_cusp_part": discriminant(g, c.cusp_part),
                 "graph": _graph_payload(out)},
        checks=[chk for chk in c.checks if chk.name in _COMPLETION_CHECKS],
        moves={"resolution": _move_rows(c.history.resolution),
               "minimalization": _move_rows(c.history.minimalization)},
        document=out,
        summary=[f"completion of x^{pair.n} = y^{pair.m}: rho {c.rho}, "
                 f"euler {c.euler_open_part}, d_far {c.d_far}"],
    )


def cmd_verify(args) -> CommandResult:
    if args.range is not None:
        if args.pair:
            raise UsageFailure("give either N M or --range A B, not both")
        return _verify_range(args.range[0], args.range[1])
    if len(args.pair) != 2:
        raise UsageFailure("expected two integers N M, or --range A B")
    try:
        return _verify_single(_pair(args.pair[0], args.pair[1]))
    except Transversal as e:
        raise UsageFailure(str(e))


def _fiber_payload(fr) -> dict:
    return {
        "vertices": list(fr.vertices),
        "near_part": list(fr.near_part),
        "free_vertex": fr.free_vertex,
        "far_part": list(fr.far_part),
        "multiplicities": {str(v): fr.multiplicity[v] for v in fr.vertices},
    }


def _verify_single(pair: CuspPair) -> CommandResult:
    cert = theorem_pipeline(pair)
    mult = dict(cert.fiber_one.multiplicity)
    mult.update(cert.fiber_two.multiplicity)
    roles = {
        "curve": (cert.curve,),
        "sections": tuple(cert.sections),
        "fiber_one": tuple(cert.fiber_one.vertices),
        "fiber_two": tuple(cert.fiber_two.vertices),
    }
    out = GraphDocument(cert.graph, roles)
    return CommandResult(
        results={"n": pair.n, "m": pair.m,
                 "d_v1": cert.d_near_one, "d_v2": cert.d_near_two,
                 "rho": cert.rho, "sections": list(cert.sections),
                 "fiber_one": _fiber_payload(cert.fiber_one),
                 "fiber_two": _fiber_payload(cert.fiber_two),
                 "graph": _graph_payload(out)},
        checks=cert.checks,
        moves={"resolution": _move_rows(cert.history.resolution),
               "minimalization": _move_rows(cert.history.minimalization)},
        document=out,
        multiplicity=mult,
        dot_label=f"d(V1) = {cert.d_near_one}, d(V2) = {cert.d_near_two}",
        summary=[f"d(V1) = {cert.d_near_one}, d(V2) = {cert.d_near_two}, "
                 f"rho = {cert.rho}, checks = {len(cert.checks)}"],
    )


def _verify_range(lo: int, hi: int) -> CommandResult:
    try:
        pairs = coprime_pairs(lo, hi)
    except ValueError as e:
        raise UsageFailure(str(e))
    rows = []
    summary = []
    good = 0
    for p in pairs:
        try:
            cert = theorem_pipeline(p)
            ok = cert.passed
            row = {"n": p.n, "m": p.m, "d_v1": cert.d_near_one,
                   "d_v2": cert.d_near_two, "checks": len(cert.checks),
                   "status": "pass" if ok else "fail"}
        except DualGraphError as e:
            ok = False
            row = {"n": p.n, "m": p.m, "status": "fail", "error": str(e)}
        good += ok
        rows.append(row)
        summary.append(f"({p.n},{p.m}) {row['status']}"
                       + (f" d_v1={row['d_v1']} d_v2={row['d_v2']}" if ok else ""))
    summary.append(f"verified {good}/{len(rows)} pairs")
    return CommandResult(
        results={"lo": lo, "hi": hi, "pairs": rows},
        checks=[CheckResult("pairs_verified", len(rows), good)],
        summary=summary,
    )


def cmd_homology(args) -> CommandResult:
    doc = _load(args.file)
    inv = smith_invariants(doc.graph)
    results = {
        "discriminant": inv.discriminant,
        "definiteness": inv.definiteness,
        "invariant_factors": list(inv.invariant_factors),
        "torsion_order": inv.torsion_order,
    }
    return CommandResult(
        results=results,
        document=doc,
        dot_label=f"d = {inv.discriminant} ({inv.definiteness})",
        summary=[f"{k}: {results[k]}" for k in
                 ("discriminant", "definiteness", "invariant_factors", "torsion_order")],
    )


def cmd_check_acyclic(args) -> CommandResult:
    try:
        chk = q_acyclicity_relation(args.d, args.de)
    except (DualGraphError, ValueError) as e:
        raise UsageFailure(str(e))
    verdict = "consistent" if chk.consistent else "inconsistent"
    return CommandResult(
        results={"d_boundary": args.d, "d_exceptional": args.de,
                 "consistent": chk.consistent, "torsion_order": chk.torsion_order},
        checks=[CheckResult("torsion_relation", True, chk.consistent)],
        summary=[f"{verdict}: |{args.d}| vs |{args.de}| * t^2"
                 + (f" with t = {chk.torsion_order}" if chk.consistent else "")],
    )


def cmd_euler(args) -> CommandResult:
    doc = _load(args.file)
    chi = euler_open(args.rho, doc.graph)
    return CommandResult(
        results={"euler_open": chi, "rho": args.rho},
        document=doc,
        dot_label=f"euler = {chi}",
        summary=[f"euler characteristic of the complement: {chi}"],
    )


# --------------------------------------------------------------- rendering

def _render_json(args, result: CommandResult) -> str:
    skip = {"command", "format", "out"}
    inputs = {k: _jsonable(v) for k, v in sorted(vars(args).items()) if k not in skip}
    payload = {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": inputs,
        "results": _jsonable(result.results),
        "checks": [{"name": c.name, "expected": _jsonable(c.expected),
                    "computed": _jsonable(c.computed), "pass": c.passed}
                   for c in result.checks],
        "moves": result.moves,
        "status": "pass" if result.passed else "fail",
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _render_text(args, result: CommandResult) -> str:
    lines = [f"command: {args.command}"]
    lines += result.summary
    for c in result.checks:
        mark = "pass" if c.passed else "FAIL"
        lines.append(f"[{mark}] {c.name}: expected {_jsonable(c.expected)}, "
                     f"computed {_jsonable(c.computed)}")
    lines.append(f"status: {'pass' if result.passed else 'fail'}")
    text = "\n".join(lines) + "\n"
    if result.document is not None:
        text += format_document(result.document)
    return text


def _render_dot(args, result: CommandResult) -> str:
    if result.dot_blocks is not None:
        return "\n".join(
            dot_graph(doc.graph, doc.roles, mult, name=name)
            for name, doc, mult in result.dot_blocks
        )
    if result.document is None:
        raise UsageFailure(f"--format dot is not available for {args.command!r}")
    doc = result.document
    return dot_graph(doc.graph, doc.roles, result.multiplicity, result.dot_label)


def render(args, result: CommandResult) -> str:
    if args.format == "json":
        return _render_json(args, result)
    if args.format == "dot":
        return _render_dot(args, result)
    return _render_text(args, result)


# ------------------------------------------------------------------ parser

def _ids(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _edge(text: str) -> Tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected id,id, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected id,id, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text", "dot"), default="text",
                        help="output rendering (default: text)")
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for randomized commands (recorded in certificates)")

    p = argparse.ArgumentParser(
        prog="dualgraph",
        description="Weighted dual graph calculus: discriminants, birational "
                    "moves, fibration combinatorics, cusp resolution.")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, help_text):
        return sub.add_parser(name, parents=[common], help=help_text)

    sp = add("disc", "discriminant of a graph or a selection")
    sp.add_argument("file")
    sp.add_argument("--sub", type=_ids, default=None, metavar="IDS",
                    help="comma-separated vertex ids (default: whole graph)")

    sp = add("minimalize", "contract non-branching (-1)-vertices")
    sp.add_argument("file")
    sp.add_argument("--protect", type=_ids, default=None, metavar="IDS",
                    help="vertex ids that must not be contracted")

    sp = add("standardize", "bring a chain to standard form")
    sp.add_argument("file")

    sp = add("blowup", "blow up at a vertex or on an edge")
    sp.add_argument("file")
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--vertex", type=int, metavar="ID")
    grp.add_argument("--edge", type=_edge, metavar="ID,ID")

    sp = add("blowdown", "blow down a (-1)-vertex")
    sp.add_argument("file")
    sp.add_argument("--vertex", type=int, required=True, metavar="ID")

    sp = add("fibers", "enumerate singular fiber shapes")
    sp.add_argument("--max", type=int, required=True, metavar="N",
                    help="largest vertex count to enumerate")
    sp.add_argument("--validate", action="store_true",
                    help="run structural validation on every fiber")

    sp = add("resolve", "resolve x^N = y^M (one stage)")
    sp.add_argument("n", type=int)
    sp.add_argument("m", type=int)
    sp.add_argument("--stage", required=True,
                    choices=("local", "infinity", "completion"))

    sp = add("verify-theorem",
             "build the fibration for x^N = y^M and certify d(V1)=N, d(V2)=M")
    sp.add_argument("pair", type=int, nargs="*", metavar="N M")
    sp.add_argument("--range", type=int, nargs=2, metavar=("A", "B"),
                    help="verify all coprime pairs with A <= m < n <= B")

    sp = add("homology", "lattice invariants of a graph")
    sp.add_argument("file")

    sp = add("check-acyclic", "test the torsion relation |d| = |de| * t^2")
    sp.add_argument("--d", type=int, required=True, metavar="INT",
                    help="boundary discriminant")
    sp.add_argument("--de", type=int, required=True, metavar="INT",
                    help="product of exceptional discriminants")

    sp = add("euler", "euler characteristic of a boundary complement")
    sp.add_argument("file")
    sp.add_argument("--rho", type=int, required=True, metavar="R",
                    help="Picard rank of the ambient surface")

    return p


#: the module attribute that handles each command
_HANDLERS = {
    "disc": "cmd_disc",
    "minimalize": "cmd_minimalize",
    "standardize": "cmd_standardize",
    "blowup": "cmd_blowup",
    "blowdown": "cmd_blowdown",
    "fibers": "cmd_fibers",
    "resolve": "cmd_resolve",
    "verify-theorem": "cmd_verify",
    "homology": "cmd_homology",
    "check-acyclic": "cmd_check_acyclic",
    "euler": "cmd_euler",
}


def _handler(command: str):
    """The function bound to the command's handler name at the time of the call."""
    return globals()[_HANDLERS[command]]


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:  # parsing leaves a parser as it was, so one serves every call
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        # looked up on every call, so a rebound cmd_* name is the one that runs
        result = _handler(args.command)(args)
        rendered = render(args, result)
    except UsageFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DualGraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as e:
            print(f"error: cannot write {args.out}: {e.strerror or e}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return 0 if result.passed else 1
