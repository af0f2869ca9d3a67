"""Print the code lines of each module of the epicmp package and their
total.

A code line holds a token of code.  Blank lines, comments and docstrings
(the string that opens a module, class or function) do not count, and a
statement or literal over several lines counts each of its lines.

    python tools/code_lines.py [SRC_DIR]

SRC_DIR defaults to the package's directory, src/epicmp.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The lines of path that hold code."""
    with path.open("rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    lines = {line for tok in tokens if tok.type not in _SKIP
             for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - _docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else \
        Path(__file__).resolve().parent.parent / "src" / "epicmp"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
