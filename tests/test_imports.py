"""Import guards over the package source.

Every name a package module imports is used in that module.  The
package's __init__.py re-exports names on purpose, and __future__
imports change compilation rather than bind a name, so both are exempt.

The dense kernels of intmat.py other than the Smith form are test
oracles only: no other package module imports or reads them.

There is not a single float in the package: no float literal, no name
float, no math function beyond gcd, isqrt and prod, and no true division
outside lattice._congruence_pass, whose divisors are all Fractions.
"""

import ast
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


DENSE_ORACLES = {"det_bareiss", "charpoly", "charpoly_inertia"}


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


EXACT_MATH = {"gcd", "isqrt", "prod"}


def float_sources(source, exact_division=()):
    """(line, what) for each way the source could compute a float; true
    division inside the functions named in exact_division is allowed."""
    tree = ast.parse(source)
    allowed = {id(node) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name in exact_division
               for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import math") for a in node.names if a.name == "math"]
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names
                      if a.name not in EXACT_MATH]
        elif (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
              and id(node) not in allowed):
            found.append((node.lineno, "/"))
    return sorted(found)


def test_scan_flags_each_float_source():
    src = ("import math\nfrom math import gcd, sqrt\nx = 0.5\ny = float(3)\n"
           "def f(a, b):\n    return a / b\n"
           "def g(a, b):\n    a /= b\n    return a / b, a // b\n")
    assert float_sources(src) == [(1, "import math"), (2, "math.sqrt"), (3, "float literal"),
                                  (4, "float"), (6, "/"), (8, "/"), (9, "/")]
    assert float_sources(src, exact_division=("g",))[-1] == (6, "/")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_not_a_single_float(path):
    exact = ("_congruence_pass",) if path.name == "lattice.py" else ()
    assert float_sources(path.read_text(), exact) == []
