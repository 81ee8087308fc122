"""Forms and ring elements are canonical, so the package decides equality
with ``==`` and never by subtracting and testing the difference for zero.
A difference may still be built, to report it as a witness."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "ktangent").glob("*.py"))


def _is_zero_of(node):
    """The receiver of a call ``<receiver>.is_zero()``, else None."""
    if (isinstance(node, ast.Call) and not node.args and not node.keywords
            and isinstance(node.func, ast.Attribute) and node.func.attr == "is_zero"):
        return node.func.value
    return None


def _is_difference(node):
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)


def _differences(fn):
    """The names that every assignment in the function fn binds to a difference."""
    bound = {}
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    bound[t.id] = bound.get(t.id, True) and (
                        isinstance(node, ast.Assign) and _is_difference(node.value))
    return {name for name, diff in bound.items() if diff}


def equality_by_subtraction(tree):
    """Line numbers where ``(a - b).is_zero()`` is called, directly or on a
    name that its function binds only to differences."""
    lines = {node.lineno for node in ast.walk(tree)
             if _is_difference(_is_zero_of(node))}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            diffs = _differences(fn)
            lines |= {node.lineno for node in ast.walk(fn)
                      if isinstance(_is_zero_of(node), ast.Name)
                      and _is_zero_of(node).id in diffs}
    return sorted(lines)


def test_sources_decide_equality_with_eq():
    assert SOURCES
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in equality_by_subtraction(ast.parse(path.read_text("utf-8")))]
    assert found == []


def test_the_guard_sees_both_spellings_and_spares_witnesses():
    src = '''
def direct(a, b):
    return (a - b).is_zero()

def named(lhs, rhs):
    diff = lhs - rhs
    return diff.is_zero()

check = lambda a, b: not (a - b).is_zero()

def witness(lhs, rhs):
    ok = lhs == rhs
    return ok, [] if ok else [str(lhs - rhs)]

def sums(a, b):
    return (a + b).is_zero()
'''
    assert equality_by_subtraction(ast.parse(src)) == [3, 7, 9]
