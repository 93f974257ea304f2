"""Every private module-level name of levring is read by levring itself.

A private helper that outlives its last caller still reads as part of
the solver.  These tests find one from the source alone: a name is read
where the code loads it (a Name), takes it as an attribute or imports
it; a mention in a docstring or comment does not count.
"""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "levring"


def parsed():
    return [ast.parse(path.read_text(), path.name)
            for path in sorted(SRC.glob("*.py"))]


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


def test_every_private_name_is_read():
    trees = parsed()
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
