"""The README's python examples run, and print what their comments say.

Each ``print(...)  # value`` line of a python block promises the line it
prints; the block's output must be exactly those promised lines, in order.
"""

import contextlib
import io
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text("utf-8"),
                    re.MULTILINE | re.DOTALL)
PROMISE = re.compile(r"^print\(.*\)\s+# (.*)$")


def test_the_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i + 1}" for i in range(len(BLOCKS))])
def test_a_readme_example_prints_what_it_promises(block):
    promised = [m.group(1) for m in map(PROMISE.match, block.splitlines()) if m]
    assert promised
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == promised
