"""Print the size of the package source: total lines and code-only lines.

Total is what `cat src/euleradic/*.py | wc -l` prints.  Code-only counts,
per file, the lines that hold a token other than a comment, a newline,
an indent, a dedent or the end marker (by `tokenize`), less the lines
of module, class and function docstrings (by `ast`).

Run from anywhere: `python tools/src_lines.py [package-dir]`.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "euleradic"
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(package: Path = PACKAGE) -> None:
    texts = [path.read_text() for path in sorted(package.glob("*.py"))]
    total = sum(text.count("\n") for text in texts)
    print(f"total lines: {total}")
    print(f"code-only lines: {sum(map(code_lines, texts))}")


if __name__ == "__main__":
    main(*map(Path, sys.argv[1:]))
