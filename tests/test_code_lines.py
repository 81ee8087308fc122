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


def test_a_move_into_the_tests_reads_as_a_move(tmp_path, capsys):
    # the same three-line helper sits in the package on the old side and in
    # the tests on the new side
    helper = "def helper(x):\n    y = x + 1\n    return y\n"
    sides = []
    for name, in_src in (("old", True), ("new", False)):
        (tmp_path / name / "src" / "pkg").mkdir(parents=True)
        (tmp_path / name / "tests").mkdir()
        (tmp_path / name / "src" / "pkg" / "m.py").write_text(
            "X = 1\n" + (helper if in_src else ""))
        (tmp_path / name / "tests" / "test_m.py").write_text(
            "from pkg.m import X\n" + ("" if in_src else helper))
        sides.append(str(tmp_path / name / "src"))
    assert code_lines.main(sides) == 0
    rows = {r.split("  ")[0].strip(): r.split()[-3:]
            for r in capsys.readouterr().out.splitlines()[1:]}
    assert rows["pkg/m.py"] == ["4", "1", "-3"]
    assert rows["tests (not in total)"] == ["1", "4", "+3"]
    assert rows["total"] == ["4", "1", "-3"]


def test_a_side_without_tests_shows_none(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("X = 1\n")
    src = str(tmp_path / "src")
    assert code_lines.main([src, src]) == 0
    (tests_row,) = [r for r in capsys.readouterr().out.splitlines() if r.startswith("tests")]
    assert tests_row.split()[-3:] == ["-", "-", "+0"]
