"""Import guards over the package source.

Every name a package module imports is used in that module.  The
package's __init__.py re-exports names on purpose, and __future__
imports change compilation rather than bind a name, so both are exempt.

The dense kernels of intmat.py other than the Smith form are test
oracles only: no other package module imports or reads them.
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
