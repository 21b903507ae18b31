"""No module imports a name it never uses: the unused-import check of a
linter, on the standard library's ast alone."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "toricq").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """(line, name) of each name an import binds that no expression of the
    module reads; names listed in __all__ count as read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names
                      if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant)}
    return sorted((line, name) for line, name in bound if name not in read)


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_names():
    source = ("import os, sys as system\nimport a.b\nfrom x import (y, z)\n"
              "from __future__ import annotations\n__all__ = ['z']\n"
              "print(os.sep, a.b)\n")
    assert unused_imports(source) == [(1, "system"), (3, "y")]
