"""Every name a module of the package imports is used in that module or
re-exported through its ``__all__``, and every function and class a module
defines, and every method and property of its classes, is used by the
package."""

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


def _definitions(body):
    """Every top-level def and class, and every non-dunder method and
    property of each class, with the nodes whose reads count as uses: all
    but its own definition."""
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        rest = [other for other in body if other is not node]
        yield node.name, rest
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                        member.name.startswith("__")
                        and member.name.endswith("__")):
                    yield "%s.%s" % (node.name, member.name), rest + [
                        other for other in node.body if other is not member]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_definition_is_used(path):
    # a top-level def or class, or a method or property of a class, must be
    # read by package code outside its own body; an import, such as
    # __init__'s, and a string in __all__ are no reads
    elsewhere = set()
    for other in PACKAGE.glob("*.py"):
        if other != path:
            elsewhere.update(_read(ast.parse(other.read_text())))
    body = ast.parse(path.read_text(), filename=str(path)).body
    unused = [name for name, rest in _definitions(body)
              if name.rpartition(".")[2] not in elsewhere.union(
                  *(_read(other) for other in rest))]
    assert not unused, "%s defines %s unused" % (path.name, unused)
