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

One recursive function, _value_text, writes every value that no row
template writes, and _json_text is that function at depth 0.  Four parts
whose shape the CLI fixes are handed to it as _Rows, each holding the
object the part is read from, and written from %-templates made for the
depth at which the writer meets the part:
- the check rows (computed, expected, name, pass), one template per row,
  from the CheckResults;
- the move rows (anchors, kind, position, vertex), from the Moves of a
  log, one template per anchor count;
- the graph part's vertex pairs [id, weight] and edge pairs [id, id],
  from the WeightedGraph, one template for every pair;
- a fiber part of verify-theorem (far_part, free_vertex, multiplicities,
  near_part, vertices), from its FiberRole.
A check value other than None or an exact int, str or bool goes back to
_value_text.  Each other part is written by its templates only when every
value they print is exactly an int (%d would print a float or a bool as
an int), each kind exactly a str and each log item exactly a Move with a
tuple of anchors; otherwise the part goes to _value_text as its plain
data.  That plain data, built by _move_rows, _graph_payload and
_fiber_payload, is what CommandResult.results and .moves read as, built
on their first read; the certificate never builds it.  So the bytes, and
the TypeError, are the same with the templates as without them.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from operator import is_
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .chains import standardize_chain
from .dsl import GraphDocument, dot_graph, format_document, parse_document
from .errors import BadOrder, DualGraphError, NotCoprime, ResultTooLong, Transversal
from .fibration import enumerate_fibers, validate_fiber
from .homology import euler_open, q_acyclicity_relation
from .lattice import discriminant, smith_invariants
from .moves import Move, blow_down, blow_up, snc_minimalize
from .resolution import (
    CheckResult,
    CuspPair,
    FiberRole,
    build_completion,
    coprime_pairs,
    resolve_at_infinity,
    resolve_cusp_local,
    theorem_pipeline,
)

SCHEMA = "dualgraph.certificate/2"


class UsageFailure(Exception):
    """Invocation problem: bad flags, unreadable input, unsupported combination."""


class CommandResult:
    """What a command computed, for each renderer.

    results and moves read as plain certificate data.  A command may hand
    over a part of either, as the value of a dict, as a _Rows that holds
    the object the part is read from: the JSON certificate is written from
    that object, and the part reads as its plain data, built from the
    object on the first read of results or moves and then kept, so every
    read returns the same object.
    """

    def __init__(self, results: dict, checks: Sequence[CheckResult] = (),
                 moves: Optional[dict] = None, document: Optional[GraphDocument] = None,
                 dot: Optional[List[tuple]] = None, summary: Optional[List[str]] = None):
        #: results and moves as the command handed them over, _Rows included
        self._parts = {"results": results, "moves": {} if moves is None else moves}
        self._views: dict = {}
        self.checks = checks
        self.document = document
        #: Graphviz blocks (name, document, multiplicity, label), joined by --format dot
        self.dot = [] if dot is None else dot
        self.summary = [] if summary is None else summary

    def _view(self, key: str):
        if key not in self._views:
            self._views[key] = _plain(self._parts[key])
        return self._views[key]

    @property
    def results(self) -> dict:
        return self._view("results")

    @property
    def moves(self) -> dict:
        return self._view("moves")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _plain(x):
    """x with each _Rows value of its dicts, at any depth, replaced by its plain data;
    x itself when it holds none."""
    if type(x) is _Rows:
        return x.plain(x.source)
    if type(x) is not dict:
        return x
    out = {k: _plain(v) for k, v in x.items()}
    return x if all(map(is_, out.values(), x.values())) else out


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
    return _value_text(x, 0)


class _Rows(NamedTuple):
    """A part of the payload held as the object it is read from.

    _value_text writes it as write(source, depth); plain(source) builds
    the plain data the part reads as in CommandResult.results and .moves,
    which write falls back to (None for the checks, which stay
    CheckResults).
    """

    write: Callable[[object, int], str]
    plain: Optional[Callable[[object], object]]
    source: object


def _value_text(x, depth: int) -> str:
    """The text of x, nested depth levels deep: the one certificate writer.

    Each object is sorted once and joined once, each array joined once by
    _array, and an exact int inside an array is written in place rather
    than by a call.  A key that is not a str raises TypeError in sorted or
    _quote.  A _Rows value is written by its own row writer.
    """
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
    if t is _Rows:
        return x.write(x.source, depth)
    if isinstance(x, dict):
        if not x:
            return "{}"
        pad = "\n" + "  " * (depth + 1)
        pieces = ["{"]
        for k, v in sorted(x.items()):
            pieces += (pad + _quote(k) + ": ", _value_text(v, depth + 1), ",")
        pieces[-1] = "\n" + "  " * depth + "}"  # the last separator gives way to the close
        return "".join(pieces)
    if t is list or t is tuple:
        return _array([repr(v) if type(v) is int else _value_text(v, depth + 1) for v in x],
                      depth)
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, str):
        return _quote(x)
    raise TypeError(f"not a certificate value: {x!r}")


def _array(texts: List[str], depth: int) -> str:
    """The array of the item texts, its brackets nested depth levels deep.

    The brackets go onto the first and last texts, so texts must be a
    list of the caller's own, and the join is the only copy.
    """
    if not texts:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    texts[0] = "[" + pad + texts[0]
    texts[-1] += "\n" + "  " * depth + "]"
    return ("," + pad).join(texts)


@lru_cache(maxsize=64)
def _row_template(keys: Tuple[str, ...], depth: int) -> str:
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


def _int_array(xs, depth: int) -> str:
    """The array of xs, exact ints, nested depth levels deep."""
    return _array([*map(repr, xs)], depth)


@lru_cache(maxsize=64)
def _move_template(count: int, depth: int) -> str:
    """The %-template of a move row with count anchors, nested depth levels
    deep: a %d per anchor, %s for the quoted kind, %d for position and vertex."""
    pad = "\n" + "  " * (depth + 2)
    anchors = ("[" + ",".join([pad + "%d"] * count) + "\n" + "  " * (depth + 1) + "]"
               if count else "[]")
    return _row_template(("anchors", "kind", "position", "vertex"), depth) % (
        anchors, "%s", "%d", "%d")


def _move_text(moves: Tuple[Move, ...], depth: int) -> str:
    """The move rows of moves nested depth levels deep, each written from its
    Move by the template for its anchor count.

    Unless every item is exactly a Move whose kind is exactly a str, whose
    vertex and position are exact ints and whose anchors are a tuple of
    them, the rows go through _value_text as their plain data, _move_rows.
    """
    if not moves:
        return "[]"
    if {*map(type, moves)} == {Move}:
        kinds, vertices, positions, anchors = zip(*moves)
        if ({*map(type, kinds)} == {str} and {*map(type, anchors)} == {tuple}
                and {*map(type, vertices), *map(type, positions),
                     *map(type, chain.from_iterable(anchors))} == {int}):
            rows = {n: _move_template(n, depth + 1) for n in {*map(len, anchors)}}
            quoted = {k: _quote(k) for k in {*kinds}}
            return _array([rows[len(a)] % (*a, quoted[k], p, v) for k, v, p, a in moves], depth)
    return _value_text(_move_rows(moves), depth)


def _move_rows(moves) -> List[dict]:
    """The plain move rows of moves."""
    return [
        {"kind": m.kind, "vertex": m.vertex, "position": m.position,
         "anchors": list(m.anchors)}
        for m in moves
    ]


def _move_part(moves: Tuple[Move, ...]) -> _Rows:
    return _Rows(_move_text, _move_rows, moves)


def _printable(what: str, value: int) -> None:
    """Raise ResultTooLong unless |value| < 10**limit, limit being the most
    digits Python prints, sys.get_int_max_str_digits() (0, or absent before
    3.10.7: no limit).  Below 2**(3 * limit) < 10**limit, no power of ten."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10 ** limit:
        raise ResultTooLong(f"{what} reaches 10**{limit}, and Python prints at most "
                            f"sys.get_int_max_str_digits() = {limit} digits")


def _graph_part(doc: GraphDocument) -> _Rows:
    """The graph part of a result, once its weights and ids are known to print."""
    g = doc.graph
    _printable("a weight of the result", max(map(abs, g._weight.values()), default=0))
    # every id the run handed out is below next_id
    _printable("a vertex id of the result", g.next_id - 1)
    return _Rows(_graph_text, _graph_payload, doc)


def _graph_text(doc: GraphDocument, depth: int) -> str:
    """The graph part nested depth levels deep: each vertex and edge pair
    written from the WeightedGraph by one template, the roles by _value_text.

    Unless every id and weight is an exact int, the part goes through
    _value_text as its plain data, _graph_payload.
    """
    g = doc.graph
    order, edges = g.vertices, g.edges
    weights = [*map(g._weight.get, order)]
    if {*map(type, order), *map(type, weights), *map(type, chain.from_iterable(edges))} <= {int}:
        pad = "\n" + "  " * (depth + 3)
        pair = "[" + pad + "%d," + pad + "%d\n" + "  " * (depth + 2) + "]"
        return _row_template(("edges", "roles", "vertices"), depth) % (
            _array([*map(pair.__mod__, edges)], depth + 1),
            _value_text(doc.roles, depth + 1),
            _array([*map(pair.__mod__, zip(order, weights))], depth + 1))
    return _value_text(_graph_payload(doc), depth)


def _graph_payload(doc: GraphDocument) -> dict:
    """The plain graph part: vertex pairs [id, weight], edge pairs and roles."""
    g = doc.graph
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
        results={"contracted": len(log.moves), "graph": _graph_part(out)},
        moves={"minimalization": _move_part(log.moves)},
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
            "graph": _graph_part(out),
        },
        moves={"standardization": _move_part(res.log.moves)},
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
        results={"created": mv.vertex, "graph": _graph_part(out)},
        moves={"main": _move_part((mv,))},
        document=out,
        summary=[f"blew up {where}, created vertex {mv.vertex}"],
    )


def cmd_blowdown(args) -> CommandResult:
    doc = _load(args.file)
    g, mv = blow_down(doc.graph, args.vertex)
    out = GraphDocument(g, _surviving_roles(doc, g))
    return CommandResult(
        results={"removed": args.vertex, "graph": _graph_part(out)},
        moves={"main": _move_part((mv,))},
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
                 "d_cusp_part": d, "graph": _graph_part(out)},
        checks=[CheckResult("cusp_part_discriminant", 1 if loc.cusp_part else None,
                            d if loc.cusp_part else None)],
        moves={"resolution": _move_part(loc.log.moves)},
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
                 "graph": _graph_part(out)},
        checks=[CheckResult("total_discriminant", -1, d_all),
                CheckResult("far_part_discriminant", pair.n, d_far)],
        moves={"resolution": _move_part(inf.log.moves)},
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
                 "graph": _graph_part(out)},
        checks=c.checks,
        moves={"resolution": _move_part(c.history.resolution.moves),
               "minimalization": _move_part(c.history.minimalization.moves)},
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


_FIBER_KEYS = ("far_part", "free_vertex", "multiplicities", "near_part", "vertices")


def _fiber_text(role: FiberRole, depth: int) -> str:
    """A fiber part nested depth levels deep, written from its FiberRole.

    Unless every vertex and multiplicity is an exact int, the part goes
    through _value_text as its plain data, _fiber_payload.
    """
    vertices = role.vertices
    mults = [*map(role.multiplicity.get, vertices)]
    if {type(role.free_vertex), *map(type, mults),
            *map(type, chain(vertices, role.near_part, role.far_part))} == {int}:
        # the key of an exact int needs no escape, and the closing quote sorts
        # below a digit and "-", so the rows sort as their keys do; an id
        # listed twice gives one row, as in the plain dict
        rows = sorted({*map('"%d": %d'.__mod__, zip(vertices, mults))})
        pad = "\n" + "  " * (depth + 2)
        multiplicities = ("{" + pad + ("," + pad).join(rows) + "\n" + "  " * (depth + 1) + "}"
                          if rows else "{}")
        return _row_template(_FIBER_KEYS, depth) % (
            _int_array(role.far_part, depth + 1), repr(role.free_vertex), multiplicities,
            _int_array(role.near_part, depth + 1), _int_array(vertices, depth + 1))
    return _value_text(_fiber_payload(role), depth)


def _fiber_payload(role: FiberRole) -> dict:
    """The plain fiber part."""
    return {
        "vertices": list(role.vertices),
        "near_part": list(role.near_part),
        "free_vertex": role.free_vertex,
        "far_part": list(role.far_part),
        "multiplicities": {str(v): role.multiplicity[v] for v in role.vertices},
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
                 "fiber_one": _Rows(_fiber_text, _fiber_payload, cert.fiber_one),
                 "fiber_two": _Rows(_fiber_text, _fiber_payload, cert.fiber_two),
                 "graph": _graph_part(out)},
        checks=cert.checks,
        moves={"resolution": _move_part(cert.history.resolution.moves),
               "minimalization": _move_part(cert.history.minimalization.moves)},
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
    payload = {
        "schema": SCHEMA,
        "command": args.command,
        "inputs": {k: v for k, v in vars(args).items() if k not in skip},
        "results": result._parts["results"],
        "checks": _Rows(_check_rows, None, result.checks),
        "moves": result._parts["moves"],
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
