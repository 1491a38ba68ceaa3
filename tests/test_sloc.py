"""tools/sloc.py counts code lines: not blank or comment-only lines, and
not docstrings, but every line of a string that is not a docstring."""

import subprocess
import sys
from pathlib import Path

TOOL = str(Path(__file__).resolve().parents[1] / "tools" / "sloc.py")

# nine code lines: the import, the three lines of X, class C, def m, its
# return, def f and its return
FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment-only line

X = """a three-line string
that is not
a docstring"""


class C:
    """A class docstring."""

    def m(self):
        """A method docstring
        over two lines."""
        # another comment-only line
        return X


def f():
    return os.sep
'''


def test_sloc_counts_nine_code_lines_in_the_fixture(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    proc = subprocess.run([sys.executable, TOOL, str(tmp_path)], capture_output=True,
                          text=True, check=True, timeout=60)
    assert proc.stdout.splitlines() == ["     9  fixture.py", f"     9  total ({tmp_path.name})"]
