"""Print the code lines of each src/ppforge module and their total.

A code line is one that holds a token other than a comment and is not part
of a docstring, so blank lines, comment-only lines and docstrings do not
count.

    python3 tools/sloc.py [SRC_DIR]
"""

import ast
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ppforge"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]) if args else SRC
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total ({src.name})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
