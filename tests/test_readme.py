"""README.md's "Library quick start" block runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```", text,
                      re.MULTILINE | re.DOTALL)
    assert block is not None
    names = {}
    exec(compile(block.group(1), f"{README}:quick start", "exec"), names)
    assert names["report"].verdict is True
    assert names["f"].text() == "x^4+3*x"
