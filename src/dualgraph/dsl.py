"""Line-oriented text format for weighted graphs.

One statement per line: ``v <id> <weight>`` declares a vertex, ``e <id>
<id>`` an intersection, ``role <name> <id>...`` tags a named selection.
``#`` starts a comment, blank lines are skipped; a comment line
``# dualgraph <version>`` must name FORMAT_VERSION.  Vertices keep file
order, so a document pins down one graph exactly; the printer emits a
canonical layout (header, vertices, sorted edges, sorted roles) that the
parser maps back to the same document.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import (
    DuplicateId,
    GraphSyntaxError,
    SelfLoop,
    UnknownEndpoint,
    UnknownVertex,
)
from .graph import WeightedGraph, build_graph

FORMAT_VERSION = "1"

_ROLE_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")
_HEADER = re.compile(r"^#\s*dualgraph\s+(\S+)\s*$")
_INTEGER = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class GraphDocument:
    """A graph and its named roles, each a tuple of ids; a role with no members is dropped."""

    graph: WeightedGraph
    roles: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        kept = {name: tuple(ids) for name, ids in self.roles.items() if ids}
        object.__setattr__(self, "roles", kept)


def _int(token: str, line_number: int, what: str) -> int:
    """An optional sign and ASCII digits; int() alone also takes 1_0 and other scripts' digits."""
    try:
        if _INTEGER.fullmatch(token):
            return int(token)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        pass
    raise GraphSyntaxError(line_number, f"{what} must be an integer, got {token!r}")


def parse_document(text: str) -> GraphDocument:
    """Parse the text format; errors carry the offending line number."""
    spec: List[Tuple[int, int]] = []
    seen: Dict[int, int] = {}
    edge_lines: List[Tuple[int, int, int]] = []
    role_lines: List[Tuple[int, str, Tuple[int, ...]]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        head = _HEADER.match(raw.strip())
        if head and head.group(1) != FORMAT_VERSION:
            raise GraphSyntaxError(
                ln, f"format version {head.group(1)!r} is not {FORMAT_VERSION!r}")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        stmt = tokens[0]
        if stmt == "v":
            if len(tokens) != 3:
                raise GraphSyntaxError(ln, "expected: v <id> <weight>")
            vid = _int(tokens[1], ln, "vertex id")
            weight = _int(tokens[2], ln, "weight")
            if vid in seen:
                raise DuplicateId(f"line {ln}: vertex {vid} already declared on line {seen[vid]}")
            seen[vid] = ln
            spec.append((vid, weight))
        elif stmt == "e":
            if len(tokens) != 3:
                raise GraphSyntaxError(ln, "expected: e <id> <id>")
            a = _int(tokens[1], ln, "endpoint")
            b = _int(tokens[2], ln, "endpoint")
            if a == b:
                raise SelfLoop(f"line {ln}: edge endpoints coincide ({a})")
            edge_lines.append((ln, a, b))
        elif stmt == "role":
            if len(tokens) < 3:
                raise GraphSyntaxError(ln, "expected: role <name> <id>...")
            name = tokens[1]
            if not _ROLE_NAME.match(name):
                raise GraphSyntaxError(ln, f"bad role name {name!r}")
            ids = tuple(_int(t, ln, "role member") for t in tokens[2:])
            role_lines.append((ln, name, ids))
        else:
            raise GraphSyntaxError(ln, f"unknown statement {stmt!r}")
    for ln, a, b in edge_lines:
        for end in (a, b):
            if end not in seen:
                raise UnknownEndpoint(f"line {ln}: edge endpoint {end} is not a declared vertex")
    roles: Dict[str, Tuple[int, ...]] = {}
    for ln, name, ids in role_lines:
        if name in roles:
            raise GraphSyntaxError(ln, f"role {name!r} already declared")
        for vid in ids:
            if vid not in seen:
                raise UnknownVertex(f"line {ln}: role member {vid} is not a declared vertex")
        roles[name] = ids
    g = build_graph(spec, [(a, b) for _, a, b in edge_lines])
    return GraphDocument(g, roles)


def format_document(doc: GraphDocument) -> str:
    """Canonical text: header, vertices in graph order, sorted edges and roles."""
    g = doc.graph
    lines = [f"# dualgraph {FORMAT_VERSION}"]
    for v in g.vertices:
        lines.append(f"v {v} {g.weight(v)}")
    for a, b in g.edges:
        lines.append(f"e {a} {b}")
    for name in sorted(doc.roles):
        ids = " ".join(str(v) for v in doc.roles[name])
        lines.append(f"role {name} {ids}")
    return "\n".join(lines) + "\n"


def dot_graph(
    g: WeightedGraph,
    roles: Optional[Dict[str, Tuple[int, ...]]] = None,
    multiplicity: Optional[Dict[int, int]] = None,
    label: Optional[str] = None,
    name: str = "dualgraph",
) -> str:
    """Render the graph for Graphviz with weight (and multiplicity) labels."""
    tags: Dict[int, List[str]] = {}
    for role in sorted(roles or {}):
        for v in roles[role]:
            tags.setdefault(v, []).append(role)
    lines = [f"graph {name} {{", "  node [shape=circle fontsize=10];"]
    if label is not None:
        lines.append(f'  label="{label}";')
    for v in g.vertices:
        parts = [f"{v}", f"w {g.weight(v)}"]
        if multiplicity is not None and v in multiplicity:
            parts.append(f"m {multiplicity[v]}")
        parts.extend(tags.get(v, ()))
        lines.append('  n{} [label="{}"];'.format(v, "\\n".join(parts)))
    for a, b in g.edges:
        lines.append(f"  n{a} -- n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
