"""Every private module-level name of levring is read by levring itself,
and every name a levring module imports is read by that module.

A private helper that outlives its last caller, or an import that
outlives its last use, still reads as part of the solver.  These tests
find one from the source alone: a name is read where the code loads it
(a Name), takes it as an attribute or imports it; a mention in a
docstring or comment does not count.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "levring"


def parsed():
    """{file name: syntax tree} of every levring module."""
    return {path.name: ast.parse(path.read_text(), path.name)
            for path in sorted(SRC.glob("*.py"))}


def top_level(body):
    """The statements of a module body, and of the if, try and with
    blocks in it, but not those of a function or class."""
    for node in body:
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            inner = getattr(node, field, None)
            if inner and not isinstance(node, (ast.FunctionDef,
                                               ast.AsyncFunctionDef,
                                               ast.ClassDef)):
                yield from top_level(inner)


def defined(tree):
    """The private names a module binds at its top level, dunders aside:
    functions, classes and assignment targets."""
    names = set()
    for node in top_level(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(name.id for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name))
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def read(tree):
    """Every name a module loads, takes as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unread(trees):
    read_anywhere = set().union(*map(read, trees))
    return sorted(set().union(*map(defined, trees)) - read_anywhere)


def imported(tree):
    """The names a module's import statements bind, those of
    `from __future__` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def unused_imports(tree):
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported(tree) - loaded)


def test_every_private_name_is_read():
    trees = list(parsed().values())
    assert len(trees) >= 10
    assert {"_walk", "_screen_plans", "_lyapunov_stack"} <= set().union(
        *map(defined, trees))
    assert unread(trees) == []


def test_an_orphan_is_found():
    tree = ast.parse('''
"""`_orphan` is named in the docstring only."""
_TABLE = {}
if _TABLE:
    def _branch():
        pass
def _orphan():
    """_helper"""
def _helper():
    return _TABLE
def caller(module):
    return _helper(), module._attribute
class _Kept:
    pass
from .other import _Kept
''')
    assert unread([tree]) == ["_branch", "_orphan"]


def test_every_import_is_read():
    # __init__.py imports to re-export
    unused = {name: unused_imports(tree) for name, tree in parsed().items()
              if name != "__init__.py"}
    assert len(unused) >= 10
    assert {name: names for name, names in unused.items() if names} == {}


def test_an_unused_import_is_found():
    tree = ast.parse('''
from __future__ import annotations
import collections.abc
import math as m
import numpy as np
import sys
from typing import TYPE_CHECKING, Optional
from .errors import NumericalError as Failed, caught
if TYPE_CHECKING:
    from .steady_state import OperatingPoint
def f(op: OperatingPoint, n: "Optional[int]") -> collections.abc.Sequence:
    """sys"""
    np.sys = caught
    return m.pi
''')
    assert unused_imports(tree) == ["Failed", "Optional", "sys"]
