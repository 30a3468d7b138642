"""Count the code lines of Python files: the non-blank lines that are not
wholly a comment and lie outside every docstring.

A docstring is a string constant that is the first statement of a module,
class or function body; all of its lines are left out.  A line that holds
only a comment is left out, and a line that holds code before a comment is
counted.

Usage: ``python tools/code_lines.py [PATH ...]`` prints one line per file,
its count and its path, then the total.  A directory stands for the
``*.py`` files below it; with no path the package under ``src/`` is
counted.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers covered by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``: the non-blank lines that a
    token other than a comment spans, outside the docstrings."""
    text = source.splitlines()
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return sum(1 for n in lines - docstring_lines(ast.parse(source)) if text[n - 1].strip())


def python_files(paths) -> list:
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return files


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    default = Path(__file__).resolve().parent.parent / "src" / "historyvalue"
    total = 0
    for path in python_files(paths or [default]):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
