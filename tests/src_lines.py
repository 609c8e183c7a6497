"""Print the line counts of ``src/``: raw lines and code-only lines, per
module and in total, then the total of ``tests/*.py``.

A code-only line is a line that is not blank, not only a comment and not
part of a docstring (the leading string of a module, class or function).
Run from the repository root:

    python tests/src_lines.py

pytest does not collect this file.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(raw, code-only) line counts of one source file."""
    text = path.read_text()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main() -> None:
    total_raw = total_code = 0
    for path in sorted(SRC.rglob("*.py")):
        raw, code = count(path)
        total_raw += raw
        total_code += code
        print(f"{raw:6,d} {code:6,d}  {path.relative_to(SRC)}")
    print(f"{total_raw:6,d} {total_code:6,d}  total (raw, code-only)")
    raw, code = (sum(column) for column in zip(*map(count, sorted(TESTS.glob("*.py")))))
    print(f"{raw:6,d} {code:6,d}  tests/*.py total (raw, code-only)")


if __name__ == "__main__":
    main()
