"""Print the package's size: total lines and code lines per file and over each file group.

A code line holds a token that is neither comment nor docstring; blank lines
count as neither. Docstrings are the string statements that open a module,
class or function. Run from the repository root:

    python scripts/size.py

It prints and never fails, so a CI step can show the size without gating it.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

GROUPS = ("src/topicsteer/*.py", "src/topicsteer/fixtures/*.py")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def size(text: str) -> tuple[int, int]:
    """(total lines, code lines) of one Python source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main(root: Path) -> None:
    for group in GROUPS:
        totals = [0, 0]
        for path in sorted(root.glob(group)):
            lines, code = size(path.read_text(encoding="utf-8"))
            totals[0] += lines
            totals[1] += code
            print(f"{lines:6,} {code:6,}  {path.relative_to(root)}")
        print(f"{totals[0]:6,} {totals[1]:6,}  {group} (total lines, code lines)")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path.cwd())
