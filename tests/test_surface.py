"""Every function and method defined in the package is reachable: it is
named somewhere else in the package, or it is library API, exported
through ``ktangent.__all__`` (a method of an exported class counts as
exported).  Dunders are exempt, since Python calls them.  A name that only
its own body mentions, as a recursive call does, is not reached.

Every name a module imports is used in that module; ``__init__``, which
imports to export, is exempt."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ktangent"


def _exports(init_text):
    """The strings of the ``__all__`` list in a package's __init__."""
    for node in ast.parse(init_text).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _definitions(tree):
    """(qualified name, def node, whether it is a method) for every
    function and method of a module, nested ones included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child, isinstance(node, ast.ClassDef)))
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _mentions(tree):
    """(identifier, line) for every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unreached(sources, exported):
    """The ``module:qualified name`` of each function or method in sources
    ({module name: source text}) that no other line of sources names and
    that ``exported`` does not cover."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    mentions = {}  # identifier -> [(module, line)]
    for module, tree in trees.items():
        for ident, line in _mentions(tree):
            mentions.setdefault(ident, []).append((module, line))
    out = []
    for module, tree in trees.items():
        for qualname, node, method in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if qualname in exported or (method and qualname.rpartition(".")[0] in exported):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(other != module or line not in own
                       for other, line in mentions.get(name, ())):
                out.append(f"{module}:{qualname}")
    return out


def test_every_package_definition_is_named_or_exported():
    sources = {path.stem: path.read_text("utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert sources
    assert unreached(sources, _exports(sources["__init__"])) == []


SAMPLE = {
    "a": '''
def used():
    def dead():  # nested in an exported function, but named nowhere
        return 0
    return helper()


def helper():
    return 1


def orphan():
    return orphan()  # only its own body names it


class Exported:
    def method(self):
        def inner():
            return 0
        return inner()

    def __repr__(self):
        return "Exported()"


class Hidden:
    def reached(self):
        return 1

    def dropped(self):
        return 2
''',
    "b": '''
from a import Hidden


def caller(h: Hidden):
    return h.reached()
''',
}


def test_the_guard_flags_unnamed_definitions_only():
    assert unreached(SAMPLE, {"used", "Exported", "caller"}) == [
        "a:used.dead", "a:orphan", "a:Hidden.dropped"]


def unused_imports(sources):
    """The ``module:name`` of each name that a module of sources ({module
    name: source text}) binds by an import and never reads; ``from
    __future__`` imports bind nothing."""
    out = []
    for module, text in sources.items():
        tree = ast.parse(text)
        bound = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [a.asname or a.name for a in node.names]
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        out += [f"{module}:{name}" for name in bound if name not in read]
    return out


def test_every_package_import_is_used():
    sources = {path.stem: path.read_text("utf-8") for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "__init__"}
    assert sources
    assert unused_imports(sources) == []


IMPORTS = {
    "c": '''
from __future__ import annotations

import os.path
import sys
from json import dumps, loads as parse
from .d import Payload, helper


def main(text: Payload) -> None:  # an annotation reads its name
    return helper(parse(text), os.path.sep)
''',
}


def test_the_import_guard_flags_unread_names_only():
    assert unused_imports(IMPORTS) == ["c:sys", "c:dumps"]
