"""Print all lines and code lines of each module of a package, and their sums.

A code line holds at least one token that is neither a comment nor part of
a docstring, the string that opens a module, class or function body; so
blank lines, comment lines and docstring lines are not code lines.  This is
the count the project tracks for ``src/radialmasa``.

Usage: python tools/code_lines.py [PACKAGE_DIR]   (default: src/radialmasa)
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# tokens that hold no code: layout, comments and the file's encoding
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The (start, end) positions of each docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def count(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of the module at ``path``."""
    source = path.read_bytes()
    spans = docstring_spans(ast.parse(source))
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in NOT_CODE or any(
                    start <= token.start and token.end <= end for start, end in spans):
                continue
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/radialmasa")
    total = [0, 0]
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(package.glob("*.py")):
        counts = count(path)
        total = [a + b for a, b in zip(total, counts)]
        print(f"{path.name:<16}{counts[0]:>8}{counts[1]:>8}")
    print(f"{'total':<16}{total[0]:>8}{total[1]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
