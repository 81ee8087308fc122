"""Count the code lines of two ktangent source trees, module by module.

    python3 tools/code_lines.py OLD NEW

OLD and NEW are ``src`` directories or git revisions of this repository, read
as in ``tools/compare_reports.py``; ``python3 tools/code_lines.py HEAD src``
compares this checkout with its last commit.  A code line is a physical line
that holds part of a token other than a comment, and that lies outside every
docstring (the string statement that opens a module, class or function):
blank lines, comment lines and docstrings are not counted.

Prints, for every module of either tree, its code lines on both sides and the
change, then the code lines of the ``tests`` directory beside each ``src``
(so that code moved from the package into the tests reads as a move, not as
a reduction; "-" for a side without one), then the package totals.  The
count is informational: the script exits 0 whatever the change, and 2 when
OLD or NEW is neither a directory nor a revision.
"""

import ast
import io
import os
import shutil
import sys
import tempfile
import tokenize

from compare_reports import source_tree

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text):
    """The number of code lines of one module's source."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(text.encode("utf-8")).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def tree_counts(src):
    """{module path relative to src: code lines} for every .py file under src."""
    out = {}
    for root, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as fh:
                    out[os.path.relpath(path, src)] = code_lines(fh.read())
    return out


_TESTS = "tests (not in total)"


def table(old, new, tests):
    """The printed rows: one per module of either side, the code lines of
    each side's tests (None for a side without them), then the total."""
    modules = sorted(old.keys() | new.keys())
    width = max(len(m) for m in modules + ["module", _TESTS])
    rows = [f"{'module':<{width}}  {'old':>6}  {'new':>6}  {'change':>6}"]
    for name, a, b in ([(m, old.get(m), new.get(m)) for m in modules]
                       + [(_TESTS, *tests), ("total", sum(old.values()), sum(new.values()))]):
        cells = ["-" if n is None else n for n in (a, b)]
        rows.append(f"{name:<{width}}  {cells[0]:>6}  {cells[1]:>6}  {(b or 0) - (a or 0):>+6}")
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    scratch = tempfile.mkdtemp(prefix="code-lines-")
    try:
        counts, tests = [], []
        for spec in argv:
            tree = source_tree(spec, scratch, ("tests",))
            if tree is None:
                print(f"error: {spec!r} is neither a directory nor a git revision",
                      file=sys.stderr)
                return 2
            counts.append(tree_counts(tree))
            beside = os.path.join(os.path.dirname(os.path.abspath(tree)), "tests")
            tests.append(sum(tree_counts(beside).values()) if os.path.isdir(beside) else None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in table(*counts, tests):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
