"""Every fenced ``python`` block of README.md runs as written, each in an
empty directory of its own, so the documented examples cannot go stale."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
#: (first line number, source) of each block.
BLOCKS = [
    (TEXT.count("\n", 0, match.start(1)) + 1, match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize(("line", "source"), BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_block_runs(line, source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # Padded so a traceback names the block's lines in README.md.
    code = compile("\n" * (line - 1) + source, str(README), "exec")
    exec(code, {"__name__": "__readme__"})
