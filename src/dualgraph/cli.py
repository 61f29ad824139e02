"""Command-line front end.

Every command reads graphs in the text format, runs one operation, and
emits a certificate: the echoed inputs, the computed results, and a list
of named checks with expected and computed values.  Output is plain text
by default, versioned JSON with --format json, Graphviz with --format
dot.  Exit status: 0 all checks pass, 1 some check or operation failed,
2 the invocation itself was unusable: bad flags or input, or an exponent
pair that is not coprime, has n <= m, or is (1, 1) for a stage that
needs a tangency.

The JSON certificate (schema dualgraph.certificate/2) holds only None,
bool, int, str, lists, tuples and dicts with str keys; any other value or
key raises TypeError, a subclass of list or tuple (a named tuple such as
a Move) included, so no value is written through str().  It has a
fixed byte layout, written by _json_text:

- each item of an array or object starts on a new line indented by two
  spaces per level of nesting, items are separated by ",", and the
  closing bracket sits on its own line at the opening line's indent;
- an empty array is "[]", an empty object "{}";
- object keys are sorted, each followed by ": ";
- strings are ASCII-escaped as json.encoder.encode_basestring_ascii
  escapes them (a non-ASCII character as a backslash-u escape, one
  beyond the BMP as a surrogate pair of them);
- integers, int subclasses included, in decimal (int.__repr__);
  true, false and null for the booleans and None;
- a tuple is written as an array;
- the document ends in a single newline.

This is the layout json.dumps(..., sort_keys=True, indent=2) gives, which
the tests hold it to.

Three kinds of list whose row shape the CLI fixes are written from a
%-template per row, made for the depth at which the writer meets the
list, and joined with one str.join: the check rows (computed, expected,
name, pass), the move rows of _move_rows (anchors, kind, position,
vertex) and the graph payload's vertex and edge pairs ([int, int]).  A check value
other than None or an exact int, str or bool still goes through
_write_json, and so does every row of another shape: another key set, a
value that is not exactly an int or a str (a bool or an IntEnum among
them), anchors that are not a list of exact ints, a pair that is not a
list of two exact ints.  Every other value is written by _write_json, so
the bytes, and the TypeError, are the generic writer's for every input.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .chains import standardize_chain
from .dsl import GraphDocument, dot_graph, format_document, parse_document
from .errors import BadOrder, DualGraphError, NotCoprime, ResultTooLong, Transversal
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

SCHEMA = "dualgraph.certificate/2"


class UsageFailure(Exception):
    """Invocation problem: bad flags, unreadable input, unsupported combination."""


@dataclass
class CommandResult:
    results: dict
    checks: Sequence[CheckResult] = ()
    moves: Dict[str, List[dict]] = field(default_factory=dict)
    document: Optional[GraphDocument] = None
    #: Graphviz blocks (name, document, multiplicity, label), joined by --format dot
    dot: List[Tuple[str, GraphDocument, Optional[Dict[int, int]], Optional[str]]] = \
        field(default_factory=list)
    summary: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _jsonable(x):
    """x with tuples as lists (--format text); a value that is not JSON raises TypeError."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if type(x) in (list, tuple):
        return [_jsonable(t) for t in x]
    if isinstance(x, dict) and all(isinstance(k, str) for k in x):
        return {k: _jsonable(v) for k, v in x.items()}
    raise TypeError(f"not a certificate value: {x!r}")


def _json_text(x) -> str:
    """x in the certificate layout (see the module docstring)."""
    out: List[str] = []
    _write_json(x, 0, out)
    return "".join(out)


def _write_json(x, depth: int, out: List[str]) -> None:
    """Append the text of x, nested depth levels deep, to out in pieces.

    One pass over x.  Ints, strings and booleans inside a container are
    written in place rather than by a call each, and each object is
    sorted once.  A key that is not a str raises TypeError in sorted or _quote.
    A _Rows item is written by its own row writer.
    """
    if isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        keys = sorted(x)
        values = [x[k] for k in keys]
        opening, closing = "{", "}"
    elif type(x) in (list, tuple):
        if not x:
            out.append("[]")
            return
        keys, values = None, x
        opening, closing = "[", "]"
    else:
        if x is None:
            text = "null"
        elif x is True:
            text = "true"
        elif x is False:
            text = "false"
        elif isinstance(x, int):
            text = int.__repr__(x)
        elif isinstance(x, str):
            text = _quote(x)
        else:
            raise TypeError(f"not a certificate value: {x!r}")
        out.append(text)
        return
    pad = "\n" + "  " * (depth + 1)
    sep = "," + pad
    append = out.append
    append(opening + pad)
    for i, v in enumerate(values):
        if keys is not None:
            append(_quote(keys[i]) + ": ")
        t = type(v)
        if t is int:
            append(repr(v))
        elif t is str:
            append(_quote(v))
        elif v is True:
            append("true")
        elif v is False:
            append("false")
        elif t is _Rows:
            append(v.write(v.rows, depth + 1))
        else:
            _write_json(v, depth + 1, out)
        append(sep)
    out[-1] = "\n" + "  " * depth + closing  # the last separator gives way to the close


class _Rows(NamedTuple):
    """A list of rows that _write_json hands to write(rows, depth), its shape's row writer.

    Only _render_json makes one, in its own copy of the payload, so none
    reaches a CommandResult.
    """

    write: Callable[[object, int], str]
    rows: object


def _value_text(x, depth: int) -> str:
    """The text of x nested depth levels deep: a scalar in place, anything else by _write_json."""
    t = type(x)
    if t is int:
        return repr(x)
    if t is str:
        return _quote(x)
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    out: List[str] = []
    _write_json(x, depth, out)
    return "".join(out)


def _array(texts: List[str], depth: int) -> str:
    """The array of the item texts, its brackets nested depth levels deep."""
    if not texts:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(texts) + "\n" + "  " * depth + "]"


def _row_template(keys: Sequence[str], depth: int) -> str:
    """The %-template of an object with the sorted keys, nested depth levels deep."""
    pad = "\n" + "  " * (depth + 1)
    return "{" + ",".join(pad + _quote(k) + ": %s" for k in keys) + "\n" + "  " * depth + "}"


def _check_rows(checks, depth: int) -> str:
    """The checks array nested depth levels deep, one template for every row."""
    row = _row_template(("computed", "expected", "name", "pass"), depth + 1)
    d = depth + 2
    return _array([row % (_value_text(c.computed, d), _value_text(c.expected, d),
                          _value_text(c.name, d), _value_text(c.passed, d))
                   for c in checks], depth)


_MOVE_KEYS = frozenset(("anchors", "kind", "position", "vertex"))


def _move_row_list(rows, depth: int) -> str:
    """A list of _move_rows rows nested depth levels deep.

    A row with other keys, or with a value of another type than _move_rows
    gives (an exact str kind, exact int vertex and position, a list of
    exact ints as anchors), goes through _write_json.
    """
    row = _row_template(("anchors", "kind", "position", "vertex"), depth + 1)
    texts = []
    for r in rows:
        if type(r) is dict and r.keys() == _MOVE_KEYS:
            anchors, kind, position, vertex = r["anchors"], r["kind"], r["position"], r["vertex"]
            if (type(kind) is str and type(position) is int and type(vertex) is int
                    and type(anchors) is list and all(type(a) is int for a in anchors)):
                texts.append(row % (_array([*map(repr, anchors)], depth + 2), _quote(kind),
                                    repr(position), repr(vertex)))
                continue
        texts.append(_value_text(r, depth + 1))
    return _array(texts, depth)


def _pair_list(pairs, depth: int) -> str:
    """A list of [int, int] pairs nested depth levels deep; any other item goes through _write_json."""
    pad = "\n" + "  " * (depth + 2)
    pair = "[" + pad + "%s," + pad + "%s\n" + "  " * (depth + 1) + "]"
    texts = []
    for p in pairs:
        if type(p) is list and len(p) == 2:
            a, b = p
            if type(a) is int and type(b) is int:
                texts.append(pair % (repr(a), repr(b)))
                continue
        texts.append(_value_text(p, depth + 1))
    return _array(texts, depth)


def _move_rows(log) -> List[dict]:
    return [
        {"kind": m.kind, "vertex": m.vertex, "position": m.position,
         "anchors": list(m.anchors)}
        for m in log
    ]


def _printable(what: str, value: int) -> None:
    """Raise ResultTooLong unless |value| < 10**limit, limit being the most
    digits Python prints, sys.get_int_max_str_digits() (0, or absent before
    3.10.7: no limit).  Below 2**(3 * limit) < 10**limit, no power of ten."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10 ** limit:
        raise ResultTooLong(f"{what} reaches 10**{limit}, and Python prints at most "
                            f"sys.get_int_max_str_digits() = {limit} digits")


def _graph_payload(doc: GraphDocument) -> dict:
    g = doc.graph
    _printable("a weight of the result", max(map(abs, g._weight.values()), default=0))
    # every id the run handed out is below next_id
    _printable("a vertex id of the result", g.next_id - 1)
    return {
        "vertices": [[v, g.weight(v)] for v in g.vertices],
        "edges": [list(e) for e in g.edges],
        "roles": {name: list(ids) for name, ids in sorted(doc.roles.items())},
    }


def _load(path: str) -> GraphDocument:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # drops a leading byte-order mark
            text = fh.read()
    except OSError as e:
        raise UsageFailure(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise UsageFailure(f"cannot read {path}: {e}")
    try:
        return parse_document(text)
    except DualGraphError as e:
        raise UsageFailure(f"{path}: {e}")


def _surviving_roles(doc: GraphDocument, g) -> Dict[str, Tuple[int, ...]]:
    alive = set(g.vertices)
    return {name: tuple(v for v in ids if v in alive) for name, ids in doc.roles.items()}


# ---------------------------------------------------------------- commands

def cmd_disc(args) -> CommandResult:
    doc = _load(args.file)
    sel = tuple(args.sub) if args.sub is not None else None
    d = discriminant(doc.graph, sel)
    _printable("the discriminant", d)
    return CommandResult(
        results={
            "discriminant": d,
            "selection": list(args.sub) if args.sub is not None else "all",
        },
        document=doc,
        dot=[("dualgraph", doc, None, f"d = {d}")],
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
    out = GraphDocument(g, doc.roles)
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
    dot = [(f"fiber_{i}", GraphDocument(f.graph), dict(f.multiplicity), None)
           for i, f in enumerate(fibers)] if args.format == "dot" else []
    return CommandResult(results=results, checks=checks, summary=summary, dot=dot)


def cmd_resolve(args) -> CommandResult:
    pair = CuspPair(args.n, args.m)
    if args.stage == "local":
        return _resolve_local(pair)
    if args.stage == "infinity":
        return _resolve_infinity(pair)
    return _resolve_completion(pair)


def _resolve_local(pair: CuspPair) -> CommandResult:
    loc = resolve_cusp_local(pair)
    out = GraphDocument(loc.graph, {"curve": (loc.curve,), "cusp_part": loc.cusp_part})
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
    out = GraphDocument(g, {"line": (inf.line,), "bridge": (inf.bridge,),
                            "far_part": inf.far_part, "line_part": inf.line_part})
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


def _resolve_completion(pair: CuspPair) -> CommandResult:
    c = build_completion(pair)
    g = c.graph
    out = GraphDocument(g, {"curve": (c.curve,), "bridge": (c.bridge,),
                            "far_part": c.far_part, "cusp_part": c.cusp_part,
                            "line_part": c.line_part,
                            "line": () if c.line is None else (c.line,)})
    return CommandResult(
        results={"n": pair.n, "m": pair.m, "stage": "completion",
                 "rho": c.rho, "euler_open_part": c.euler_open_part,
                 "curve_weight": g.weight(c.curve),
                 "d_boundary_chain": c.d_chain, "d_far_part": c.d_far,
                 "d_line_part": c.d_line,
                 "d_cusp_part": discriminant(g, c.cusp_part),
                 "graph": _graph_payload(out)},
        checks=c.checks,
        moves={"resolution": _move_rows(c.history.resolution),
               "minimalization": _move_rows(c.history.minimalization)},
        document=out,
        summary=[f"completion of x^{pair.n} = y^{pair.m}: rho {c.rho}, "
                 f"euler {c.euler_open_part}, d_far {c.d_far}"],
    )


def cmd_verify_theorem(args) -> CommandResult:
    if args.range is not None:
        if args.pair:
            raise UsageFailure("give either N M or --range A B, not both")
        return _verify_range(args.range[0], args.range[1])
    if len(args.pair) != 2:
        raise UsageFailure("expected two integers N M, or --range A B")
    return _verify_single(CuspPair(args.pair[0], args.pair[1]))


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
    out = GraphDocument(cert.graph, {"curve": (cert.curve,), "sections": cert.sections,
                                     "fiber_one": cert.fiber_one.vertices,
                                     "fiber_two": cert.fiber_two.vertices})
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
        dot=[("dualgraph", out, mult, f"d(V1) = {cert.d_near_one}, d(V2) = {cert.d_near_two}")],
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
    _printable("the discriminant or an invariant factor",
               max(map(abs, (inv.discriminant, *inv.invariant_factors))))
    results = {
        "discriminant": inv.discriminant,
        "definiteness": inv.definiteness,
        "invariant_factors": list(inv.invariant_factors),
        "torsion_order": inv.torsion_order,
    }
    return CommandResult(
        results=results,
        document=doc,
        dot=[("dualgraph", doc, None, f"d = {inv.discriminant} ({inv.definiteness})")],
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
    _printable("the Euler characteristic", chi)
    return CommandResult(
        results={"euler_open": chi, "rho": args.rho},
        document=doc,
        dot=[("dualgraph", doc, None, f"euler = {chi}")],
        summary=[f"euler characteristic of the complement: {chi}"],
    )


# --------------------------------------------------------------- rendering

def _render_json(args, result: CommandResult) -> str:
    skip = {"command", "format", "out"}
    results, moves = result.results, result.moves
    # the row lists go into copies, so result itself keeps its plain data
    graph = results.get("graph") if isinstance(results, dict) else None
    if type(graph) is dict:
        graph = dict(graph)
        for key in ("vertices", "edges"):
            if type(graph.get(key)) is list:
                graph[key] = _Rows(_pair_list, graph[key])
        results = {**results, "graph": graph}
    if isinstance(moves, dict):
        moves = {k: _Rows(_move_row_list, rows) if type(rows) is list else rows
                 for k, rows in moves.items()}
    payload = {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": {k: v for k, v in vars(args).items() if k not in skip},
        "results": results,
        "checks": _Rows(_check_rows, result.checks),
        "moves": moves,
        "status": "pass" if result.passed else "fail",
    }
    return _json_text(payload) + "\n"


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
    blocks = result.dot
    if not blocks:
        if result.document is None:
            raise UsageFailure(f"--format dot is not available for {args.command!r}")
        blocks = [("dualgraph", result.document, None, None)]
    return "\n".join(dot_graph(doc.graph, doc.roles, mult, label, name)
                     for name, doc, mult, label in blocks)


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


def _handler(command: str):
    """The function bound to cmd_<command> (dashes as underscores) at the time of the call."""
    return globals()["cmd_" + command.replace("-", "_")]


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
    except (UsageFailure, BadOrder, NotCoprime, Transversal) as e:  # the invocation's fault
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
