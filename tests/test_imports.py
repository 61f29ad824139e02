"""Import guards over the package source.

Every name a package module imports is used in that module.  The
package's __init__.py re-exports names on purpose, and __future__
imports change compilation rather than bind a name, so both are exempt.

The dense kernels of intmat.py, Bareiss and Berkowitz, are test oracles
only: no other package module imports or reads them.  The package's one
Smith elimination is intmat.sparse_smith_form, and the dense least-entry
kernel that it replaced is the oracle reference_smith_normal_form in
test_intmat.py.

Every package graph is built along one path, WeightedGraph._trusted, and
every selection is checked by induced_graph: no package module calls the
public constructor WeightedGraph(...), and none, __init__.py included,
imports or reads SubDivisor, which stays as the tests' reference for
induced_graph.

There is not a single float in the package: no float literal, no name
float, no math function beyond gcd, isqrt and prod, and no true division.
No module imports fractions either: every kernel runs on plain ints, the
congruence pass included.

Neither importing the CLI nor computing the signature of a graph with a
cycle loads fractions or sympy.

Every source file under src/, tests/ and bench/ parses with the grammar
of Python 3.10, the requires-python floor, while the interpreter that
runs the tests may be newer.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dualgraph"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(name)
    return unused


DENSE_ORACLES = {"det_bareiss", "charpoly"}


def dense_oracle_uses(source):
    """Dense-kernel names a module imports by name or reads as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in DENSE_ORACLES]
        elif isinstance(node, ast.Attribute) and node.attr in DENSE_ORACLES:
            found.append(node.attr)
    return found


def test_scan_sees_modules():
    assert len(MODULES) >= 10


def test_scan_flags_an_unused_import():
    src = "from __future__ import annotations\nimport os\nfrom typing import List, Tuple\nx: List = []\n"
    assert unused_imports(src) == ["os", "Tuple"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_a_dense_oracle():
    src = ("from .intmat import charpoly, smith_normal_form\n"
           "from . import intmat\nd = intmat.det_bareiss([])\n")
    assert dense_oracle_uses(src) == ["charpoly", "det_bareiss"]


@pytest.mark.parametrize("path", [p for p in PACKAGE.glob("*.py") if p.name != "intmat.py"],
                         ids=lambda p: p.name)
def test_dense_kernels_stay_test_oracles(path):
    assert dense_oracle_uses(path.read_text()) == []


def graph_layer_bypasses(source):
    """(line, what) for each read or import of SubDivisor, and each direct
    call of the public WeightedGraph constructor; the class statement that
    defines SubDivisor binds the name without reading it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, "SubDivisor") for a in node.names if a.name == "SubDivisor"]
        elif isinstance(node, ast.Name) and node.id == "SubDivisor" or (
                isinstance(node, ast.Attribute) and node.attr == "SubDivisor"):
            found.append((node.lineno, "SubDivisor"))
        elif isinstance(node, ast.Call) and "WeightedGraph" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append((node.lineno, "WeightedGraph()"))
    return sorted(found)


def test_scan_flags_each_graph_layer_bypass():
    src = ("from .graph import SubDivisor, WeightedGraph\n"
           "class SubDivisor:\n    pass\n"
           "s = SubDivisor(g, [1]).selected\nt = graph.SubDivisor\n"
           "h = WeightedGraph((), {}, [], 1)\nk = graph.WeightedGraph._trusted((), {}, [], 1)\n"
           "m = graph.WeightedGraph((), {}, [], 1)\n")
    assert graph_layer_bypasses(src) == [(1, "SubDivisor"), (4, "SubDivisor"),
                                         (5, "SubDivisor"), (6, "WeightedGraph()"),
                                         (8, "WeightedGraph()")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_graphs_and_selections_take_one_path(path):
    assert graph_layer_bypasses(path.read_text()) == []


EXACT_MATH = {"gcd", "isqrt", "prod"}


def float_sources(source):
    """(line, what) for each way the source could compute a float."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import math") for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names
                      if a.name not in EXACT_MATH]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
    return sorted(found)


def test_scan_flags_each_float_source():
    src = ("import math\nfrom math import gcd, sqrt\nx = 0.5\ny = float(3)\n"
           "def f(a, b):\n    return a / b\n"
           "def g(a, b):\n    a /= b\n    return a / b, a // b\n")
    assert float_sources(src) == [(1, "import math"), (2, "math.sqrt"), (3, "float literal"),
                                  (4, "float"), (6, "/"), (8, "/"), (9, "/")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_not_a_single_float(path):
    assert float_sources(path.read_text()) == []


def fractions_imports(source):
    """Line numbers of the imports of fractions, at any depth."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
                  or isinstance(node, ast.ImportFrom) and node.module == "fractions")


def test_scan_flags_a_fractions_import():
    src = ("import fractions\nfrom fractions import Fraction\n"
           "def f():\n    import os, fractions as q\n    return q\n")
    assert fractions_imports(src) == [1, 2, 4]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_fractions(path):
    assert fractions_imports(path.read_text()) == []


def test_the_cli_imports_neither_fractions_nor_sympy():
    # a 5-cycle takes the congruence pass, which runs on plain ints
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, dualgraph.cli\n"
             "from dualgraph import build_graph, signature\n"
             "g = build_graph([(i, -2) for i in range(5)], [(i, (i + 1) % 5) for i in range(5)])\n"
             "assert signature(g) == (0, 1, 4)\n"
             "print(sorted({'fractions', 'sympy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


ROOT = PACKAGE.parent.parent
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def test_scan_sees_every_source_tree():
    assert {p.relative_to(ROOT).parts[0] for p in SOURCES} == {"src", "tests", "bench"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # requires-python is 3.10; the grammar of a newer release fails here
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_python_3_10_scan_flags_newer_grammar():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
