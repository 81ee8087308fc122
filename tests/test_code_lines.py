"""tools/code_lines.py: docstrings, comments and blank lines are not code."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import code_lines  # noqa: E402

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
X = """a string that is
not a docstring"""


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return (1 +  # trailing comment
                2)
'''


def test_docstrings_comments_and_blanks_are_not_counted():
    # X's two lines, class A, def f, and the return statement's two lines
    assert code_lines.code_lines(SAMPLE) == 6


def test_a_tree_compared_with_itself_changes_nothing(capsys):
    src = str(ROOT / "src")
    assert code_lines.main([src, src]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[-1].split()[0] == "total" and rows[-1].split()[-1] == "+0"
    assert any(r.startswith("ktangent/differentials.py") for r in rows)


def test_an_unknown_tree_is_refused(capsys):
    assert code_lines.main(["no-such-revision", str(ROOT / "src")]) == 2
    assert "neither a directory nor a git revision" in capsys.readouterr().err
