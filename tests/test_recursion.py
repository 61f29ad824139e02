"""No function of the graph and kernel modules calls itself by name.

Python recursion stops at the interpreter's recursion limit, about a
thousand frames, so a recursive walk over a chain or tree of that many
vertices ends in RecursionError.  These modules walk graphs with loops
instead.  A function counts as calling itself when its body, nested
closures included, calls its own name, or calls self.<name> or
cls.<name> for a method.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dualgraph"
MODULES = ("graph", "lattice", "chains", "fibration", "moves", "resolution", "homology",
           "intmat")


def self_calls(source):
    """Names of the functions in source that call themselves."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if (isinstance(f, ast.Name) and f.id == fn.name) or (
                    isinstance(f, ast.Attribute) and f.attr == fn.name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                found.append(fn.name)
                break
    return found


def test_scan_flags_recursion():
    src = (
        "def outer(g):\n"
        "    def enc(v):\n"
        "        return [enc(u) for u in g[v]]\n"
        "    return enc(0)\n"
        "class C:\n"
        "    def walk(self, v):\n"
        "        return self.walk(v - 1) if v else 0\n"
        "    def other(self, d):\n"
        "        return d.other(1)\n"
    )
    assert self_calls(src) == ["enc", "walk"]


@pytest.mark.parametrize("module", MODULES)
def test_no_recursion(module):
    assert self_calls((PACKAGE / f"{module}.py").read_text()) == []
