"""The package installs with no dependencies: it imports only the stdlib.
Inside it, ``mpoly`` alone knows how a polynomial stores its terms."""

import ast
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ktangent").glob("*.py"))


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_sources_import_only_the_stdlib():
    assert SOURCES
    allowed = set(sys.stdlib_module_names) | {"ktangent"}
    foreign = [f"{path.name}:{line} imports {name}"
               for path in SOURCES
               for line, name in _absolute_imports(ast.parse(path.read_text("utf-8")))
               if name.split(".")[0] not in allowed]
    assert foreign == []


def test_only_mpoly_touches_its_term_dict_and_private_helpers():
    leaks = []
    for path in SOURCES:
        if path.name == "mpoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "_terms":
                leaks.append(f"{path.name}:{node.lineno} reads _terms")
            elif (isinstance(node, ast.ImportFrom) and node.level == 1
                  and node.module == "mpoly"):
                leaks += [f"{path.name}:{node.lineno} imports mpoly.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert leaks == []


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text("utf-8")
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)
