"""Every module-level import in the package, the tests and the tools is
read by its module: an import that a deletion left behind fails here.  A
name is read where the module loads it (a name, or the root of an
attribute chain) or lists it in `__all__`."""

import ast
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DIRS = (os.path.join("src", "slicelab"), "tests", "tools")


def _modules():
    return sorted(os.path.join(d, name) for d in DIRS
                  for name in os.listdir(os.path.join(ROOT, d))
                  if name.endswith(".py"))


def _module_imports(tree):
    # (bound name, line) of each import statement outside any def or class
    def walk(nodes):
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    if alias.name != "*":
                        yield ((alias.asname or alias.name).split(".")[0],
                               node.lineno)
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef)):
                yield from walk(ast.iter_child_nodes(node))
    return list(walk(tree.body))


def _read_names(tree):
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names |= {elt.value for elt in node.value.elts
                      if isinstance(elt, ast.Constant)}
    return names


def unused_imports(source: str):
    """(name, line) of each module-level import the source never reads."""
    tree = ast.parse(source)
    read = _read_names(tree)
    return [(name, line) for name, line in _module_imports(tree)
            if name not in read]


@pytest.mark.parametrize("path", _modules())
def test_module_reads_every_import(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from math import pi, tau\n"
              "try:\n    import json\nexcept ImportError:\n    json = None\n"
              "__all__ = ['tau']\n"
              "def f():\n    import sys\n    return osp.sep\n")
    assert unused_imports(source) == [("os", 2), ("pi", 3), ("json", 5)]
