"""Count the code lines of each module of src/scvxkit.

    python3 tools/code_lines.py [DIR]

A line counts when a token other than a comment, a newline or an indent
starts on it, outside a module, class or function docstring: blank lines,
comment lines, docstrings and the continuation lines of a multi-line
string do not count.  Prints one line per module of DIR (src/scvxkit by
default), sorted by name, and the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    spans = docstring_spans(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED or any(start <= token.start < end for start, end in spans):
            continue
        lines.add(token.start[0])
    return len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src" / "scvxkit"),
                        help="package directory (default: src/scvxkit)")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted(Path(args.dir).glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16} {count:>6,}")
    print(f"{'total':<16} {total:>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
