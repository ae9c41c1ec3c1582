#!/usr/bin/env python3
"""Count the code lines of Python files.

    python3 scripts/code_lines.py PATH...

Each PATH is a .py file or a directory, searched for .py files.  A code
line holds a token that is neither a comment nor a module, class or
function docstring; blank lines, comment-only lines and docstrings do not
count.  One line per file, "<count>  <path>", then "<count>  total".
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree):
    """The (line, column) where each docstring of the tree starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path):
    """The number of code lines of the Python file at path."""
    source = Path(path).read_bytes()
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING
                                   and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths):
    for path in map(Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv):
    if not argv:
        print("usage: code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in python_files(argv):
        n = code_lines(path)
        total += n
        print("%6d  %s" % (n, path))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
