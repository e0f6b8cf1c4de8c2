"""Every name a module of the package imports is used in that module or
re-exported through its ``__all__``, and every function and class a module
defines is used by the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "curvealex"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = set(_imported(tree)) - used - _exported(tree)
    assert not unused, "%s imports %s unused" % (path.name, sorted(unused))


def _read(node):
    """Every name and attribute that code under the node reads."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_definition_is_used(path):
    # a top-level def or class must be read by package code outside its own
    # body; an import, such as __init__'s, and a string in __all__ are no
    # reads
    elsewhere = set()
    for other in PACKAGE.glob("*.py"):
        if other != path:
            elsewhere.update(_read(ast.parse(other.read_text())))
    body = ast.parse(path.read_text(), filename=str(path)).body
    unused = [node.name for node in body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in elsewhere.union(
                  *(_read(other) for other in body if other is not node))]
    assert not unused, "%s defines %s unused" % (path.name, unused)
