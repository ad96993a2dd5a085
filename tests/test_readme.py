"""The README's library example runs and prints what it says it prints."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_prints_its_comment():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    lines = block.splitlines()
    printed = max(k for k, line in enumerate(lines) if line.startswith("print("))
    comment = lines[printed + 1:]
    assert comment and all(line.startswith("# ") for line in comment)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == [line[2:] for line in comment]
