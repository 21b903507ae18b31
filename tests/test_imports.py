"""No module imports a name it never uses, and the package defines nothing
that nothing reads, down to the fields of its records: the unused-import
and dead-code checks of a linter, on the standard library's ast alone."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "toricq").glob("*.py"))
MODULES = SOURCES + sorted((ROOT / "tests").glob("*.py"))
TRACER = ROOT / "bench" / "tracing.py"

# definitions and record fields of src/toricq that no module there reads,
# and why each stays
KEEP = {
    "corrected_segment": "library.py example polytope of the tests",
    "corrected_square": "library.py example polytope of the tests",
    "simplex": "library.py example polytope of the tests",
    "square": "library.py example polytope of the tests",
    "regularity_delta": "README names it and oracle tests check it",
    "IntegralResult.hit_budget": "README documents the budget stop",
    "IntegralResult.nodes": "README documents it; ROADMAP item 7 prints it",
    "IntegralResult.integrand_calls":
        "README documents it; ROADMAP item 7 prints it",
}


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


def identifiers(tree):
    """Each name and attribute name that the tree reads, with repeats."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            yield node.attr


def dead_definitions(sources, tracer):
    """(module, line, name) of each function, class and non-dunder method
    of the sources, a dict of module name to text, whose name is read
    nowhere in them outside its own definition and is not named by the
    tracer's source (as an identifier, or a string that getattr reads)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = [i for tree in trees.values() for i in identifiers(tree)]
    tracer = ast.parse(tracer)
    named = set(identifiers(tracer)) | {
        node.value for node in ast.walk(tracer)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    dead = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(i == name for i in identifiers(node))
            if reads.count(name) == own and name not in named:
                dead.append((module, node.lineno, name))
    return sorted(dead)


def record_fields(tree):
    """(line, class, field) of each field of the tree's NamedTuple classes
    and each attribute that a class's __init__ sets on self."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if any(isinstance(b, ast.Name) and b.id == "NamedTuple"
               for b in node.bases):
            yield from ((item.lineno, node.name, item.target.id)
                        for item in node.body
                        if isinstance(item, ast.AnnAssign))
        for init in node.body:
            if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                yield from ((sub.lineno, node.name, sub.attr)
                            for sub in ast.walk(init)
                            if isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self")


def dead_fields(sources, tracer):
    """(module, line, "Class.field") of each record field of the sources
    whose name no attribute of them reads and the tracer does not name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    tracer = ast.parse(tracer)
    named = set(identifiers(tracer)) | {
        node.value for node in ast.walk(tracer)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return sorted((module, line, f"{cls}.{field}")
                  for module, tree in trees.items()
                  for line, cls, field in record_fields(tree)
                  if field not in reads | named)


def test_no_dead_definitions():
    # every definition and record field that nothing reads is kept on
    # purpose, and every kept one is still unread
    sources = {p.name: p.read_text() for p in SOURCES}
    dead = (dead_definitions(sources, TRACER.read_text())
            + dead_fields(sources, TRACER.read_text()))
    assert {name for _, _, name in dead} == set(KEEP)


def test_the_check_sees_dead_definitions():
    sources = {
        "a.py": ("def loop(n):\n    return loop(n - 1)\n"
                 "def used():\n    pass\n"
                 "class C:\n    def __init__(self):\n        pass\n"
                 "    def method(self):\n        pass\n"
                 "    def traced(self):\n        pass\n"
                 "def unread():\n    pass\n"),
        "b.py": "from a import C, used\nused()\nC()\n",
    }
    tracer = "patch(C, 'traced', 'a.C.traced')\n"
    assert dead_definitions(sources, tracer) == [
        ("a.py", 1, "loop"), ("a.py", 8, "method"), ("a.py", 12, "unread")]


def test_the_check_sees_dead_fields():
    sources = {
        "a.py": ("class R(NamedTuple):\n    read: int\n    unread: int\n"
                 "class C:\n    def __init__(self, x):\n"
                 "        self.x, self.y = x, x\n        self.traced = x\n"
                 "        self.x.z = x\n"),
        "b.py": "def f(r, c):\n    r.unread = 1\n    return r.read + c.x\n",
    }
    tracer = "getattr(c, 'traced')\n"
    assert dead_fields(sources, tracer) == [
        ("a.py", 3, "R.unread"), ("a.py", 6, "C.y")]
